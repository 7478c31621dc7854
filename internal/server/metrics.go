package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/buildinfo"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// outcomeOK labels a request that got an answer rather than an error; every
// other outcome label is a row of wire's error contract.
const outcomeOK = "ok"

// endpointInstruments holds one endpoint's pre-resolved request-path
// instruments: instrument() only does atomic Inc/Observe on them, never a
// registry lookup (which locks and allocates a sorted label key).
type endpointInstruments struct {
	requests map[string]*obs.Counter // by outcome; read-only after startup
	latency  *obs.Histogram
}

// registerMetrics exports the daemon's and the served index's series into
// reg. The per-request series (gaussd_http_requests_total,
// gaussd_request_seconds) are atomic instruments resolved here once per
// endpoint and bumped by instrument(); everything the index already counts
// is exported through Func collectors, so the scrape pays the collection
// cost and the hot path pays nothing beyond two atomic updates.
func (s *Server) registerMetrics(reg *obs.Registry) {
	s.httpMetrics = make(map[string]*endpointInstruments, len(instrumentedEndpoints))
	for _, ep := range instrumentedEndpoints {
		// The outcome label set is bounded — ok plus the error contract's — and
		// every endpoint×outcome series is registered here, so the request path
		// never touches the registry (and the registry never grows while
		// serving, so a scrape cannot race a registration).
		ins := &endpointInstruments{requests: make(map[string]*obs.Counter, len(wire.ErrorContracts)+1)}
		for _, c := range append([]wire.ErrorContract{{Outcome: outcomeOK}}, wire.ErrorContracts...) {
			ins.requests[c.Outcome] = reg.Counter("gaussd_http_requests_total",
				"HTTP requests by endpoint and outcome.",
				obs.L("endpoint", ep), obs.L("outcome", c.Outcome))
		}
		ins.latency = reg.Histogram("gaussd_request_seconds",
			"End-to-end request latency in seconds by endpoint.", nil,
			obs.L("endpoint", ep))
		s.httpMetrics[ep] = ins
	}

	bi := buildinfo.Get()
	reg.Gauge("gaussd_build_info",
		"Build identity of the running gaussd; the value is always 1.",
		obs.L("version", bi.Version), obs.L("revision", bi.Revision),
		obs.L("goversion", bi.GoVersion)).Set(1)

	reg.GaugeFunc("gaussd_inflight_requests",
		"Requests currently holding an execution slot.",
		func() float64 { return float64(s.lim.inFlight()) })
	reg.GaugeFunc("gaussd_queued_requests",
		"Requests waiting for an execution slot.",
		func() float64 { return float64(s.lim.waiting()) })
	reg.CounterFunc("gaussd_rejected_total",
		"Requests refused with 429 by admission control.",
		func() float64 { return float64(s.rejected.Load()) })

	// Every index closure resolves s.index() per scrape, so after a recovery
	// swap the metrics follow the healed index like the request path does.
	ioc := func(name, help string, get func(pagefile.Stats) uint64) {
		reg.CounterFunc(name, help, func() float64 {
			st, err := s.index().IOStats()
			if err != nil {
				return 0
			}
			return float64(get(st))
		})
	}
	ioc("gausstree_pagefile_logical_reads_total",
		"Page reads requested of the page manager.",
		func(st pagefile.Stats) uint64 { return st.LogicalReads })
	ioc("gausstree_pagefile_cache_hits_total",
		"Page reads served from the page cache.",
		func(st pagefile.Stats) uint64 { return st.CacheHits })
	ioc("gausstree_pagefile_physical_reads_total",
		"Page reads that went to the backing file.",
		func(st pagefile.Stats) uint64 { return st.PhysicalReads })
	ioc("gausstree_pagefile_writes_total",
		"Pages written to the backing file.",
		func(st pagefile.Stats) uint64 { return st.Writes })
	ioc("gausstree_pagefile_seeks_total",
		"Non-sequential page accesses.",
		func(st pagefile.Stats) uint64 { return st.Seeks })

	reg.GaugeFunc("gausstree_vectors",
		"Vectors stored in the served index.",
		func() float64 { return float64(s.index().Len()) })
	// One series per shard, registered now like every other family: an index
	// keeps its shard count across a recovery swap.
	for i := range s.index().ShardLens() {
		reg.GaugeFunc("gausstree_shard_vectors",
			"Vectors stored per shard: the skew of the partition by parameter space.",
			func() float64 {
				if lens := s.index().ShardLens(); i < len(lens) {
					return float64(lens[i])
				}
				return 0
			}, obs.L("shard", strconv.Itoa(i)))
	}
	reg.GaugeFunc("gausstree_snapshot_epoch",
		"Published snapshot epoch — committed mutations, summed across shards.",
		func() float64 { return float64(s.index().SnapshotEpoch()) })
	reg.GaugeFunc("gausstree_oldest_pinned_epoch",
		"Lower bound on the oldest epoch a pinned snapshot reader still observes (summed across shards); gausstree_snapshot_epoch minus this bounds the reclamation lag.",
		func() float64 { return float64(s.index().OldestPinnedEpoch()) })
	reg.GaugeFunc("gausstree_pinned_readers",
		"Snapshot readers currently pinning a reclamation epoch.",
		func() float64 { return float64(s.index().PinnedReaders()) })
	reg.GaugeFunc("gausstree_limbo_pages",
		"Freed pages awaiting reclamation.",
		func() float64 { return float64(s.index().LimboPages()) })

	reg.GaugeFunc("gaussd_serving_state",
		"Serving state of the daemon: 0 healthy, 1 degraded, 2 recovering.",
		func() float64 { return float64(s.servingState()) })
	reg.CounterFunc("gaussd_degraded_total",
		"Healthy-to-degraded transitions (storage faults that interrupted serving).",
		func() float64 { return float64(s.degradedTotal.Load()) })
	reg.CounterFunc("gaussd_recovery_attempts_total",
		"Self-healing reopen attempts by the supervisor.",
		func() float64 { return float64(s.recoveryAttempts.Load()) })
	reg.CounterFunc("gaussd_recoveries_total",
		"Successful self-healing recoveries (healed index swapped in).",
		func() float64 { return float64(s.recoveries.Load()) })
	if s.cfg.ScrubInterval > 0 {
		reg.CounterFunc("gausstree_scrub_runs_total",
			"Completed background integrity scrub passes.",
			func() float64 { return float64(s.scrubRuns.Load()) })
		reg.CounterFunc("gausstree_scrub_pages_total",
			"Pages verified by the background integrity scrubber.",
			func() float64 { return float64(s.scrubPages.Load()) })
		reg.CounterFunc("gausstree_scrub_errors_total",
			"Scrub passes that found corruption (each also degrades the daemon).",
			func() float64 { return float64(s.scrubErrors.Load()) })
		reg.GaugeFunc("gausstree_scrub_last_duration_seconds",
			"Wall-clock duration of the most recent scrub pass.",
			func() float64 { return s.scrubLastSeconds() })
	}

	if _, ok := s.index().WALStats(); ok {
		wal := func() gausstree.WALStats { ws, _ := s.index().WALStats(); return ws }
		reg.CounterFunc("gausstree_wal_fsyncs_total",
			"WAL fsyncs issued.",
			func() float64 { return float64(wal().Fsyncs) })
		reg.CounterFunc("gausstree_wal_records_total",
			"WAL records appended.",
			func() float64 { return float64(wal().Records) })
		reg.GaugeFunc("gausstree_wal_group_size_mean",
			"Mean records per WAL fsync (group-commit amortization).",
			func() float64 { return wal().MeanGroupSize })
		reg.GaugeFunc("gausstree_wal_durable_lsn",
			"Highest fsynced WAL sequence number.",
			func() float64 { return float64(wal().DurableLSN) })
		reg.GaugeFunc("gausstree_wal_durable_lag",
			"Appended-but-not-yet-durable WAL records (appended LSN minus durable LSN).",
			func() float64 { ws := wal(); return float64(ws.AppendedLSN - ws.DurableLSN) })
	}
}

// statusWriter records the response status so instrument can label the
// outcome after the handler returns. Handlers that never call WriteHeader
// implicitly wrote 200. An explicit outcome (setOutcome) overrides the
// status-derived label, which lets two different 503 rejections — degraded
// and closed — land in distinct outcome buckets.
type statusWriter struct {
	http.ResponseWriter
	code    int
	outcome string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func (w *statusWriter) setOutcome(oc string) {
	if w.outcome == "" {
		w.outcome = oc
	}
}

func (w *statusWriter) outcomeLabel() string {
	switch {
	case w.outcome != "":
		return w.outcome
	case w.status() < 400:
		return outcomeOK
	}
	// Every error response pins its outcome (writeError, handleReady).
	return wire.ContractOfCode(wire.ErrCodeInternal).Outcome
}

// noteOutcome pins the request's outcome label to that of a wire error code's
// contract row — more precise than the HTTP status (degraded, poisoned and
// closed all answer 503). It no-ops on writers that are not wrapped by
// instrument.
func noteOutcome(w http.ResponseWriter, code string) {
	if ow, ok := w.(interface{ setOutcome(string) }); ok {
		ow.setOutcome(wire.ContractOfCode(code).Outcome)
	}
}

// instrument wraps one endpoint handler with the observability shell:
// request/latency/outcome metrics, and — when the request is sampled or a
// slow-query threshold is armed — a pooled obs.Trace attached to the
// request context so every layer below records spans into it. With metrics
// off and tracing unarmed the wrapper is a time.Since and two nil checks.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sampled := s.sampler.Sample()
		var tr *obs.Trace
		if sampled || s.cfg.SlowQueryThreshold > 0 {
			tr = obs.NewTrace("")
			r = r.WithContext(obs.WithTrace(r.Context(), tr))
		}
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		elapsed := time.Since(start)
		// httpMetrics is built once in registerMetrics and read-only after,
		// so this is two atomic updates — no registry lock, no allocation.
		if m := s.httpMetrics[endpoint]; m != nil {
			m.requests[sw.outcomeLabel()].Inc()
			m.latency.Observe(elapsed.Seconds())
		}
		if tr != nil {
			s.emitTrace(endpoint, tr, sw.status(), elapsed, sampled)
			// Safe to pool: the engine layers join all their goroutines
			// before the handler returns, so nothing still holds tr.
			tr.Release()
		}
	}
}

// traceRecord is one line of the slow-query / trace log.
type traceRecord struct {
	TraceID   string     `json:"trace_id"`
	Endpoint  string     `json:"endpoint"`
	Status    int        `json:"status"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Slow      bool       `json:"slow"`
	Spans     []obs.Span `json:"spans"`
}

// emitTrace writes the completed trace as single-line JSON to the trace
// log when it was sampled, or — regardless of sampling — when it crossed
// the slow-query threshold. Lines are serialized by traceMu so concurrent
// requests never interleave mid-line.
func (s *Server) emitTrace(endpoint string, tr *obs.Trace, status int, elapsed time.Duration, sampled bool) {
	slow := s.cfg.SlowQueryThreshold > 0 && elapsed >= s.cfg.SlowQueryThreshold
	if (!sampled && !slow) || s.cfg.TraceLog == nil {
		return
	}
	spans := tr.Spans()
	if spans == nil {
		spans = []obs.Span{}
	}
	line, err := json.Marshal(traceRecord{
		TraceID:   tr.ID(),
		Endpoint:  endpoint,
		Status:    status,
		ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
		Slow:      slow,
		Spans:     spans,
	})
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.traceMu.Lock()
	s.cfg.TraceLog.Write(line)
	s.traceMu.Unlock()
}
