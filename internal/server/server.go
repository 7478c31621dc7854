// Package server implements gaussd's HTTP/JSON serving layer over any
// gausstree index (unsharded Tree or Sharded): the /v1 query, mutation and
// stats endpoints of the internal/wire format, per-request deadlines
// propagated into the context-aware engine calls, admission control with a
// bounded in-flight set plus a bounded wait queue (429 + Retry-After beyond
// that), a batch endpoint reusing query.BatchExecutor's worker pool, and
// graceful shutdown that drains in-flight queries before Sync/Close.
//
// # Degraded mode and self-healing
//
// The server runs a three-state serving machine: healthy → degraded →
// recovering → healthy. A storage fault — a mutation that poisons the tree,
// a failed WAL group commit, or corruption found by the background
// integrity scrubber — degrades the daemon instead of killing it: reads
// keep serving the last committed snapshot, mutations are refused with 503
// and the "degraded" wire code (rejected before touching the index, so
// always safe to retry), and /readyz flips to 503 so load balancers drain
// the node. When Config.Reopen is set, a supervisor goroutine then heals
// the daemon in place: it quiesces in-flight mutations, quarantines the
// broken index so it can never write again, reopens the files (replaying
// the write-ahead log, which preserves every acknowledged write), and
// atomically swaps the healed index behind the serving seam — retrying with
// capped exponential backoff until it succeeds. The swap is invisible to
// concurrent queries: in-flight reads finish on the old (still readable)
// snapshot and every later request sees the healed index.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/buildinfo"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// Config tunes the daemon. The zero value serves with sensible defaults.
type Config struct {
	// MaxInflight bounds concurrently executing requests (default 64).
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot (default 128;
	// negative means no waiting — reject as soon as all slots are busy).
	MaxQueue int
	// Timeout is the per-request deadline ceiling (default 30s). A request's
	// timeout_ms may shorten it, never extend it.
	Timeout time.Duration
	// ReadOnly refuses /v1/insert and /v1/delete with 403.
	ReadOnly bool
	// Metrics, when non-nil, receives the daemon's and the index's metric
	// families; gaussd serves it at /metrics on the ops listener. Nil
	// disables metrics entirely.
	Metrics *obs.Registry
	// TraceSample is the fraction of requests traced end to end, in [0, 1].
	// 0 (the default) traces nothing.
	TraceSample float64
	// SlowQueryThreshold, when positive, emits any request at least this
	// slow to TraceLog as a completed trace, regardless of TraceSample.
	SlowQueryThreshold time.Duration
	// TraceLog receives sampled and slow traces as single-line JSON; nil
	// drops them (trace ids still flow to responses).
	TraceLog io.Writer
	// Reopen, when non-nil, arms the self-healing supervisor: after a
	// storage fault degrades the daemon it is called (with mutations
	// quiesced and the old index quarantined) to reopen the index from its
	// files, replaying the write-ahead log. It must return a fresh Index
	// over the same data or an error (the supervisor retries with backoff).
	// Nil leaves a degraded daemon degraded until the process restarts.
	Reopen func() (Index, error)
	// ScrubInterval, when positive, runs the background integrity scrubber
	// this often while healthy; detected corruption degrades the daemon. 0
	// disables scrubbing.
	ScrubInterval time.Duration
	// ScrubRate bounds the scrubber to this many page reads per second so a
	// pass never competes with foreground queries (default 256; negative
	// means unthrottled).
	ScrubRate int
	// RecoveryBase is the supervisor's initial retry backoff after a failed
	// reopen (default 100ms).
	RecoveryBase time.Duration
	// RecoveryMax caps the supervisor's exponential retry backoff (default
	// 5s).
	RecoveryMax time.Duration
}

func (c *Config) fillDefaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 128
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	switch {
	case c.ScrubRate == 0:
		c.ScrubRate = 256
	case c.ScrubRate < 0:
		c.ScrubRate = 0
	}
	if c.RecoveryBase <= 0 {
		c.RecoveryBase = 100 * time.Millisecond
	}
	if c.RecoveryMax <= 0 {
		c.RecoveryMax = 5 * time.Second
	}
}

// maxBodyBytes bounds request bodies; batch and insert payloads are the
// largest legitimate ones.
const maxBodyBytes = 64 << 20

// endpointCounters is the per-endpoint served/rejected breakdown of one
// admission-controlled endpoint.
type endpointCounters struct {
	served, rejected atomic.Uint64
}

// admissionEndpoints are the endpoints that hold an execution slot; stats
// and healthz bypass admission control and are not broken down.
var admissionEndpoints = []string{"kmliq", "kmliq_ranked", "tiq", "batch", "insert", "delete"}

// instrumentedEndpoints are all endpoints wrapped by instrument(); their
// request/latency series are pre-registered at startup (registerMetrics) so
// the request path never registers anything.
var instrumentedEndpoints = append(append([]string(nil), admissionEndpoints...), "stats", "healthz", "readyz")

// idxBox wraps the served Index for the atomic swap seam: the supervisor
// publishes a healed index by storing a new box, and every request resolves
// the current one with a single atomic load (s.index()).
type idxBox struct{ idx Index }

// Server serves one Index over HTTP. Create with New, start with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	idx          atomic.Pointer[idxBox]
	cfg          Config
	lim          *limiter
	batch        *query.BatchExecutor
	hs           *http.Server
	sampler      *obs.Sampler
	eps          map[string]*endpointCounters
	httpMetrics  map[string]*endpointInstruments // nil when metrics are off; read-only after New
	served       atomic.Uint64
	rejected     atomic.Uint64
	traceMu      sync.Mutex
	shutdownOnce sync.Once
	shutdownErr  error

	// Serving-state machine (see health.go). mutGate is held shared by every
	// mutation for its full execution and exclusively by the supervisor
	// across quiesce-quarantine-reopen-swap, so a recovery can never run
	// concurrently with a mutation on the old index.
	health        atomic.Int32 // servingState
	mutGate       sync.RWMutex
	degradeReason atomic.Pointer[string]
	kick          chan struct{} // wakes the supervisor; capacity 1
	stop          chan struct{} // closed by Shutdown
	bg            sync.WaitGroup

	degradedTotal    atomic.Uint64
	recoveryAttempts atomic.Uint64
	recoveries       atomic.Uint64
	scrubRuns        atomic.Uint64
	scrubPages       atomic.Uint64
	scrubErrors      atomic.Uint64
	scrubLastSecBits atomic.Uint64 // math.Float64bits of the last pass duration
}

// New builds a server over the given index. The server owns the index from
// here on: Shutdown syncs and closes it (and after a recovery swap, owns
// the replacement).
func New(idx Index, cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:     cfg,
		lim:     newLimiter(cfg.MaxInflight, cfg.MaxQueue),
		sampler: obs.NewSampler(cfg.TraceSample),
		eps:     make(map[string]*endpointCounters, len(admissionEndpoints)),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	s.idx.Store(&idxBox{idx: idx})
	s.batch = query.NewBatchExecutor(indexEngine{s}, 0)
	for _, ep := range admissionEndpoints {
		s.eps[ep] = new(endpointCounters)
	}
	if cfg.Metrics != nil {
		s.registerMetrics(cfg.Metrics)
	}
	if cfg.Reopen != nil {
		s.bg.Add(1)
		go s.supervise()
	}
	if cfg.ScrubInterval > 0 {
		s.bg.Add(1)
		go s.scrubLoop()
	}
	// ReadTimeout bounds the whole request read: a client that sends
	// headers and then stalls the body would otherwise hold its execution
	// slot forever (the per-request timeout context only starts once the
	// body is decoded).
	s.hs = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       cfg.Timeout,
	}
	return s
}

// index resolves the currently served index: one atomic load, following any
// recovery swap the supervisor has published.
func (s *Server) index() Index { return s.idx.Load().idx }

// Handler returns the daemon's route table; used by Serve and directly by
// tests (the package is internal — external deployments run cmd/gaussd).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/kmliq", s.instrument("kmliq", s.handleKMLIQ))
	mux.HandleFunc("POST /v1/kmliq-ranked", s.instrument("kmliq_ranked", s.handleKMLIQRanked))
	mux.HandleFunc("POST /v1/tiq", s.instrument("tiq", s.handleTIQ))
	mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("POST /v1/insert", s.instrument("insert", handleMutation(s, "insert", runInsert)))
	mux.HandleFunc("POST /v1/delete", s.instrument("delete", handleMutation(s, "delete", runDelete)))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	// /healthz is pure liveness — the process answers HTTP — and stays 200
	// even degraded, so orchestrators do not restart a daemon that is busy
	// healing itself. Readiness (load-balancer membership) is /readyz.
	mux.HandleFunc("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	}))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReady))
	return mux
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully stops the daemon: it stops accepting new work, waits
// (bounded by ctx) for in-flight requests to finish, stops the supervisor
// and scrubber, then syncs and closes the index. In-flight queries complete
// with valid answers; requests that arrive after shutdown began are refused
// at the connection level. Shutdown is idempotent: repeated calls return
// the first call's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		close(s.stop)
		hErr := s.hs.Shutdown(ctx)
		// After bg.Wait no goroutine can swap the index anymore, so the
		// loaded index is the one to release.
		s.bg.Wait()
		idx := s.index()
		healthy := s.servingState() == stateHealthy
		var syncErr error
		if healthy {
			syncErr = idx.Sync()
		}
		closeErr := idx.Close()
		if !healthy {
			// A degraded index refuses checkpoints (poisoned tree, failed
			// WAL) by design, and its Close restates the sticky fault that
			// already degraded the daemon. Skipping Sync and swallowing the
			// restated fault loses nothing: every acknowledged mutation is
			// fsynced in the log and replays on the next Open.
			closeErr = nil
		}
		s.shutdownErr = errors.Join(hErr, syncErr, closeErr)
	})
	return s.shutdownErr
}

// admit acquires an execution slot, possibly after a bounded queue wait.
// ctx already carries the request's deadline, so a queued request gives up
// (504) when its time is spent rather than waiting on indefinitely; a full
// system rejects immediately with 429 and Retry-After so well-behaved
// clients back off. On true the caller holds a slot and must
// release(endpoint); endpoint names the per-endpoint breakdown bucket.
func (s *Server) admit(w http.ResponseWriter, ctx context.Context, endpoint string) bool {
	if err := s.lim.acquire(ctx); err != nil {
		if errors.Is(err, errSaturated) {
			s.rejected.Add(1)
			if ep := s.eps[endpoint]; ep != nil {
				ep.rejected.Add(1)
			}
			w.Header().Set("Retry-After", "1")
			writeError(w, wire.Error{Code: wire.ErrCodeSaturated,
				Error: "server saturated: all execution slots and queue positions are taken"})
			return false
		}
		// The deadline passed (or the client hung up) while queued.
		writeError(w, errorBody(err))
		return false
	}
	return true
}

// release returns the execution slot and counts the request as served.
func (s *Server) release(endpoint string) {
	s.lim.release()
	s.served.Add(1)
	if ep := s.eps[endpoint]; ep != nil {
		ep.served.Add(1)
	}
}

// deadline derives the request context: the server ceiling bounds every
// request, a positive client timeout_ms may only shorten it (compared in
// milliseconds: a huge timeout_ms would overflow a Duration into the past).
func (s *Server) deadline(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if timeoutMS > 0 && timeoutMS <= d.Milliseconds() {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleKMLIQ(w http.ResponseWriter, r *http.Request) {
	s.handleQuery(w, r, "kmliq", func(ctx context.Context, req wire.QueryRequest) ([]gausstree.Match, gausstree.QueryStats, error) {
		return s.index().KMLIQ(ctx, req.Query, req.K)
	})
}

func (s *Server) handleKMLIQRanked(w http.ResponseWriter, r *http.Request) {
	s.handleQuery(w, r, "kmliq_ranked", func(ctx context.Context, req wire.QueryRequest) ([]gausstree.Match, gausstree.QueryStats, error) {
		return s.index().KMLIQRanked(ctx, req.Query, req.K)
	})
}

func (s *Server) handleTIQ(w http.ResponseWriter, r *http.Request) {
	s.handleQuery(w, r, "tiq", func(ctx context.Context, req wire.QueryRequest) ([]gausstree.Match, gausstree.QueryStats, error) {
		return s.index().TIQ(ctx, req.Query, req.PTheta)
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, endpoint string,
	run func(context.Context, wire.QueryRequest) ([]gausstree.Match, gausstree.QueryStats, error)) {
	var req wire.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// A traced request adopts the client's correlation id; untraced
	// requests have a nil trace here and both calls no-op.
	tr := obs.TraceFrom(r.Context())
	tr.SetID(req.TraceID)
	ctx, cancel := s.deadline(r, req.TimeoutMS)
	defer cancel()
	if !s.admit(w, ctx, endpoint) {
		return
	}
	defer s.release(endpoint)
	ms, st, err := run(ctx, req)
	if err != nil {
		writeError(w, errorBody(err))
		return
	}
	writeJSON(w, http.StatusOK, wire.QueryResponse{
		Matches: ms,
		Stats:   wire.FromQueryStats(st),
		TraceID: tr.ID(),
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	reqs := make([]query.Request, len(req.Queries))
	for i, item := range req.Queries {
		qr := query.Request{Query: item.Query, K: item.K, PTheta: item.PTheta}
		switch item.Kind {
		case wire.KindKMLIQ:
			qr.Kind = query.KindKMLIQ
		case wire.KindKMLIQRanked:
			qr.Kind = query.KindKMLIQRanked
		case wire.KindTIQ:
			qr.Kind = query.KindTIQ
		default:
			writeError(w, wire.Error{Code: wire.ErrCodeInvalid,
				Error: fmt.Sprintf("query %d: unknown kind %q", i, item.Kind)})
			return
		}
		reqs[i] = qr
	}
	tr := obs.TraceFrom(r.Context())
	tr.SetID(req.TraceID)
	ctx, cancel := s.deadline(r, req.TimeoutMS)
	defer cancel()
	if !s.admit(w, ctx, "batch") {
		return
	}
	defer s.release("batch")
	resp := wire.BatchResponse{Responses: make([]wire.BatchItemResponse, len(reqs)), TraceID: tr.ID()}
	for i, br := range s.batch.Execute(ctx, reqs) {
		item := wire.BatchItemResponse{
			Matches: br.Results,
			Stats:   wire.FromQueryStats(br.Stats),
		}
		if br.Err != nil {
			item.Matches = []gausstree.Match{}
			item.Error = br.Err.Error()
			item.Code = wire.ContractOf(br.Err).Code
		}
		resp.Responses[i] = item
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMutation is the one handler behind /v1/insert and /v1/delete: the
// read-only check, body decode, degraded gate, mutation gate, admission wait
// and storage-fault detection, with run making the endpoint's index call on
// the decoded body. run returns the success response or the error, beside
// either the durably applied count /v1/insert reports (0 for delete).
func handleMutation[Req any](s *Server, endpoint string, run func(Index, Req) (resp any, inserted int, err error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.ReadOnly {
			writeError(w, wire.Error{Code: wire.ErrCodeReadOnly, Error: "daemon is read-only"})
			return
		}
		var req Req
		if !decodeBody(w, r, &req) {
			return
		}
		// Fast rejection outside the gate (a degraded daemon answers mutations
		// immediately), then the authoritative check under the shared gate: a
		// mutation holding the gate can never interleave with a recovery swap.
		if !s.admitMutation(w) {
			return
		}
		s.mutGate.RLock()
		defer s.mutGate.RUnlock()
		if !s.admitMutation(w) {
			return
		}
		// The deadline bounds only the admission wait: a mutation that has
		// begun must run to its durable commit (interrupting it mid-flight
		// would poison the tree against further mutations by design).
		ctx, cancel := s.deadline(r, 0)
		defer cancel()
		if !s.admit(w, ctx, endpoint) {
			return
		}
		defer s.release(endpoint)
		resp, inserted, err := run(s.index(), req)
		if err != nil {
			s.noteMutationError(err)
			// The durably applied count rides beside the error, so the client
			// knows what survives a crash and what to retry.
			body := errorBody(err)
			body.Inserted = inserted
			writeError(w, body)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func runInsert(idx Index, req wire.InsertRequest) (any, int, error) {
	if len(req.Vectors) == 0 {
		return nil, 0, fmt.Errorf("%w: insert needs at least one vector", gausstree.ErrInvalidQuery)
	}
	n, err := idx.InsertAll(req.Vectors)
	return wire.InsertResponse{Inserted: n}, n, err
}

func runDelete(idx Index, req wire.DeleteRequest) (any, int, error) {
	found, err := idx.Delete(req.Vector)
	return wire.DeleteResponse{Found: found}, 0, err
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// GET carries no body, so the deadline rides in as ?timeout_ms=. The
	// collection calls take index-internal locks and have no context
	// parameter to interrupt them, so the bound is enforced here instead:
	// collection runs in a goroutine and an overrun returns 504 while the
	// straggler finishes in the background (the buffered channel lets it
	// exit either way).
	var timeoutMS int64
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, wire.Error{Code: wire.ErrCodeInvalid,
				Error: "invalid timeout_ms query parameter " + strconv.Quote(v)})
			return
		}
		timeoutMS = n
	}
	ctx, cancel := s.deadline(r, timeoutMS)
	defer cancel()
	type statsResult struct {
		resp wire.StatsResponse
		err  error
	}
	done := make(chan statsResult, 1)
	go func() {
		resp, err := s.collectStats()
		done <- statsResult{resp: resp, err: err}
	}()
	select {
	case <-ctx.Done():
		writeError(w, errorBody(ctx.Err()))
	case res := <-done:
		if res.err != nil {
			writeError(w, errorBody(res.err))
			return
		}
		writeJSON(w, http.StatusOK, res.resp)
	}
}

// collectStats assembles the /v1/stats snapshot; it may block on
// index-internal locks, so handleStats runs it off the response path and
// bounds the wait with the request deadline.
func (s *Server) collectStats() (wire.StatsResponse, error) {
	idx := s.index()
	ios, err := idx.IOStats()
	if err != nil {
		return wire.StatsResponse{}, err
	}
	var ws *wire.WALStats
	if w2, ok := idx.WALStats(); ok {
		ws = &wire.WALStats{
			Fsyncs:        w2.Fsyncs,
			Records:       w2.Records,
			MeanGroupSize: w2.MeanGroupSize,
			DurableLSN:    w2.DurableLSN,
			AppendedLSN:   w2.AppendedLSN,
		}
	}
	eps := make(map[string]wire.EndpointStats, len(s.eps))
	for name, ep := range s.eps {
		eps[name] = wire.EndpointStats{
			Served:   ep.served.Load(),
			Rejected: ep.rejected.Load(),
		}
	}
	var scrub *wire.ScrubStats
	if s.cfg.ScrubInterval > 0 {
		scrub = &wire.ScrubStats{
			Runs:        s.scrubRuns.Load(),
			Pages:       s.scrubPages.Load(),
			Errors:      s.scrubErrors.Load(),
			LastSeconds: s.scrubLastSeconds(),
		}
	}
	bi := buildinfo.Get()
	return wire.StatsResponse{
		Backend:       idx.Kind(),
		Dim:           idx.Dim(),
		Len:           idx.Len(),
		ShardVectors:  idx.ShardLens(),
		LeafFormat:    idx.LeafFormat(),
		ReadOnly:      s.cfg.ReadOnly,
		WAL:           ws,
		SnapshotEpoch: idx.SnapshotEpoch(),
		ServingState:  s.servingState().String(),
		Scrub:         scrub,
		IO: wire.IOStats{
			LogicalReads:  ios.LogicalReads,
			CacheHits:     ios.CacheHits,
			PhysicalReads: ios.PhysicalReads,
			Writes:        ios.Writes,
			Seeks:         ios.Seeks,
		},
		Server: wire.ServerStats{
			InFlight:  s.lim.inFlight(),
			Queued:    s.lim.waiting(),
			Served:    s.served.Load(),
			Rejected:  s.rejected.Load(),
			Endpoints: eps,
		},
		Build: wire.BuildInfo{
			Version:   bi.Version,
			Revision:  bi.Revision,
			Modified:  bi.Modified,
			GoVersion: bi.GoVersion,
		},
	}, nil
}

// decodeBody parses the JSON request body into dst, writing a 400 and
// returning false on malformed or oversized input. Unknown fields, inside a
// vector too, and anything after the one JSON value are rejected so
// client/server format drift fails loudly instead of silently ignoring a
// parameter.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = wire.Decode(body, dst, true)
	}
	if err != nil {
		writeError(w, wire.Error{Code: wire.ErrCodeInvalid, Error: "decoding request: " + err.Error()})
		return false
	}
	return true
}

// writeJSON answers with body's JSON and the newline json.Encoder ends it
// with. A body that does not encode leaves the response empty.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if b, err := wire.Append(make([]byte, 0, 4096), body); err == nil {
		w.Write(append(b, '\n'))
	}
}

// errorBody is the wire form of an engine error: its text under the code of
// the contract row wire.ContractOf finds for it.
func errorBody(err error) wire.Error {
	return wire.Error{Error: err.Error(), Code: wire.ContractOf(err).Code}
}

// writeError answers with an error body, under the HTTP status and the
// metrics outcome its code's contract row names.
func writeError(w http.ResponseWriter, body wire.Error) {
	noteOutcome(w, body.Code)
	writeJSON(w, wire.ContractOfCode(body.Code).Status, body)
}
