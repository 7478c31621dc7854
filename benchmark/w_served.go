package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/client"
	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/server"
	"github.com/gauss-tree/gausstree/internal/shard"
	"github.com/gauss-tree/gausstree/internal/wire"
)

const (
	servedShards = 4
	batchSize    = 16
)

// daemon is an in-process internal/server on a loopback TCP listener.
type daemon struct {
	srv  *server.Server
	addr string
	done chan error // Serve's return
}

// startDaemon serves idx on 127.0.0.1:0. When wrap is non-nil the listener
// is served by the benchmark's own http.Server around wrap(srv.Handler()),
// which is how the traced run gets a span around the handler.
func startDaemon(idx server.Index, wrap func(http.Handler) http.Handler) (*daemon, *http.Server, error) {
	srv := server.New(idx, server.Config{Metrics: obs.NewRegistry()})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	d := &daemon{srv: srv, addr: l.Addr().String(), done: make(chan error, 1)}
	if wrap == nil {
		go func() { d.done <- srv.Serve(l) }()
		return d, nil, nil
	}
	hs := &http.Server{Handler: wrap(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { d.done <- hs.Serve(l) }()
	return d, hs, nil
}

// stop shuts the daemon down (closing its index) and waits for the serving
// goroutine to end.
func (d *daemon) stop(hs *http.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if hs != nil {
		err = hs.Shutdown(ctx)
	}
	err = errors.Join(err, d.srv.Shutdown(ctx))
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// Span plumbing of the traced served run. The client goroutine reserves
// three span ids per request and sends the first in a header; the handler
// span takes the second and the index span the third, so the client side
// knows its descendants' ids without a reply channel.
const spanHeader = "X-Bench-Span"

type spanCtxKey struct{}

type spanRef struct{ id, req int64 }

// headerTransport copies the span reference of the request context into
// the span header and counts HTTP attempts (retries = attempts - ops).
type headerTransport struct {
	base     http.RoundTripper
	attempts atomic.Int64
}

func (t *headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost { // the stats poller's GETs are not ops
		t.attempts.Add(1)
	}
	if ref, ok := r.Context().Value(spanCtxKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(ref.id, 10)+" "+strconv.FormatInt(ref.req, 10))
	}
	return t.base.RoundTrip(r)
}

// serverSpans records the spans taken on the server's goroutines.
type serverSpans struct {
	mu sync.Mutex
	sb *spanBuf
}

func (ss *serverSpans) add(s span) {
	ss.mu.Lock()
	ss.sb.spans = append(ss.sb.spans, s)
	ss.mu.Unlock()
}

// middleware records the internal/server span around the route table.
func (ss *serverSpans) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idStr, reqStr, ok := strings.Cut(r.Header.Get(spanHeader), " ")
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(idStr, 10, 64)
		req, _ := strconv.ParseInt(reqStr, 10, 64)
		s := span{ID: parent + 1, Parent: parent, Req: req, Layer: layerServer, Name: "Handler.ServeHTTP " + r.URL.Path}
		s.Start = int64(time.Since(ss.sb.rec.origin))
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanRef{s.ID, req})))
		s.End = int64(time.Since(ss.sb.rec.origin))
		ss.add(s)
	})
}

// spanIndex records the gausstree span around the index calls the handler
// makes. It does not own the index: the workload's own daemon closes it.
type spanIndex struct {
	server.Index
	ss *serverSpans
}

func (x spanIndex) Sync() error  { return nil }
func (x spanIndex) Close() error { return nil }

func (x spanIndex) record(ctx context.Context, name string, st gausstree.QueryStats, start int64) {
	ref, ok := ctx.Value(spanCtxKey{}).(spanRef)
	if !ok {
		return
	}
	x.ss.add(span{ID: ref.id + 1, Parent: ref.id, Req: ref.req, Layer: layerFacade, Name: name,
		Start: start, End: int64(time.Since(x.ss.sb.rec.origin)),
		Pages: st.PageAccesses, Nodes: st.NodesVisited, Scored: st.VectorsScored})
}

func (x spanIndex) KMLIQ(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error) {
	start := int64(time.Since(x.ss.sb.rec.origin))
	ms, st, err := x.Index.KMLIQ(ctx, q, k)
	x.record(ctx, "Sharded.KMLIQContext", st, start)
	return ms, st, err
}

func (x spanIndex) TIQ(ctx context.Context, q gausstree.Vector, pTheta float64) ([]gausstree.Match, gausstree.QueryStats, error) {
	start := int64(time.Since(x.ss.sb.rec.origin))
	ms, st, err := x.Index.TIQ(ctx, q, pTheta)
	x.record(ctx, "Sharded.TIQContext", st, start)
	return ms, st, err
}

// clientSpan opens the client-layer root span of one request and returns
// the context that carries its reference to the server side.
func clientSpan(ctx context.Context, sb *spanBuf, name string) (context.Context, int) {
	req := sb.rec.req()
	si := sb.beginN(0, req, layerClient, name, 2) // plus the handler's and the index's span ids
	return context.WithValue(ctx, spanCtxKey{}, spanRef{sb.spans[si].ID, req}), si
}

// spanned turns a client call into an op: in the traced run the call is
// wrapped in a client-layer root span.
func spanned(name string, call func(ctx context.Context, i int) (pages uint64, err error)) opFunc {
	return func(ctx context.Context, i int, sb *spanBuf) (uint64, error) {
		if sb == nil {
			return call(ctx, i)
		}
		ctx, si := clientSpan(ctx, sb, name)
		pages, err := call(ctx, i)
		sb.end(si).Pages = pages
		return pages, err
	}
}

// servedPhases returns the three phases of the workload over cl. A served
// query costs twice an in-process one and there are three phases, so kmliq
// and tiq take the first half of the pool (1000 ops, the fewest that carry a
// p99) and batch16 the first quarter: that keeps a round under 3 s and fits
// more rounds, the thing the quietest estimator feeds on, into the window.
func servedPhases(cl *client.Client, pool []gausstree.Vector) []phase {
	batches := make([][]client.Query, len(pool)/4/batchSize)
	for b := range batches {
		for j := 0; j < batchSize; j++ {
			batches[b] = append(batches[b], client.Query{Kind: client.KindKMLIQ, Query: pool[b*batchSize+j], K: kK})
		}
	}
	kmliq := spanned("Client.KMLIQ", func(ctx context.Context, i int) (uint64, error) {
		_, st, err := cl.KMLIQ(ctx, pool[i], kK)
		return st.PageAccesses, err
	})
	tiq := spanned("Client.TIQ", func(ctx context.Context, i int) (uint64, error) {
		_, st, err := cl.TIQ(ctx, pool[i], tiqTheta)
		return st.PageAccesses, err
	})
	batch := spanned("Client.Batch", func(ctx context.Context, i int) (uint64, error) {
		rs, err := cl.Batch(ctx, batches[i])
		var pages uint64
		for _, r := range rs {
			pages += r.Stats.PageAccesses
			if r.Err != nil && err == nil {
				err = r.Err
			}
		}
		return pages, err
	})
	return []phase{
		{name: "kmliq", ops: len(pool) / 2, reads: 1, do: kmliq},
		{name: "tiq", ops: len(pool) / 2, reads: 1, do: tiq},
		{name: "batch16", ops: len(batches), reads: batchSize, do: batch},
	}
}

// runServed is the served-4shard workload.
func runServed(ctx context.Context, cfg runConfig) (*runResult, error) {
	res, in, genS, err := begin(wServed, cfg, 0)
	if err != nil {
		return nil, err
	}

	var sh *gausstree.Sharded
	var d *daemon
	var cl *client.Client
	var bulkS float64
	var kAns, tAns []answer
	teardown := func() error {
		cl.Close()
		return d.stop(nil)
	}
	setupS, err := medianSetup(func() error {
		s, err := gausstree.NewSharded(in.dim, servedShards)
		if err != nil {
			return err
		}
		sh = s
		t := time.Now()
		if err := sh.BulkLoad(in.vectors); err != nil {
			sh.Close()
			return err
		}
		bulkS = time.Since(t).Seconds()
		if d, _, err = startDaemon(server.ShardedIndex(sh), nil); err != nil {
			sh.Close()
			return err
		}
		if cl, err = client.New(d.addr); err != nil {
			return err
		}
		kAns, tAns = kAns[:0], tAns[:0]
		for i := 0; i < cfg.sz.checked; i++ {
			ms, _, err := cl.KMLIQ(ctx, in.pool[i], kK)
			if err != nil {
				return fmt.Errorf("warm-up kmliq %d: %w", i, err)
			}
			kAns = append(kAns, answer{in.pool[i], ms})
			if ms, _, err = cl.TIQ(ctx, in.pool[i], tiqTheta); err != nil {
				return fmt.Errorf("warm-up tiq %d: %w", i, err)
			}
			tAns = append(tAns, answer{in.pool[i], ms})
		}
		return nil
	}, teardown)
	if err != nil {
		return nil, err
	}
	defer teardown()
	res.e2e.set("setup_s", genS+setupS, setups)

	// The window runs on one P. With two, the client, the handler and the
	// four shard goroutines of a request hop between them, and how long an
	// idle P takes to wake is the host's business: on this shared 2-core
	// host that moved p50 by a quarter between runs of one seed, and two
	// clients on two Ps moved as much whenever a neighbour took a core. On
	// one P the window measures the CPU time of the whole served path.
	phases := servedPhases(cl, in.pool)
	procs := runtime.GOMAXPROCS(1)
	passes := window(ctx, phases, cfg.seconds)
	runtime.GOMAXPROCS(procs)
	readMetrics(res, phases, passes, quietest)
	res.e2e.set("heap_mb", heapMB(), 1)
	res.check(in, kAns, tAns)
	res.finish()
	if !cfg.trace {
		return res, nil
	}

	// Traced run, on one P like the window. A second daemon serves the same
	// index through the benchmark's seams: a header-carrying client
	// transport, a handler middleware and an Index wrapper give real nested
	// spans client > server > gausstree on every request.
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	out := res.layer
	rec := newRecorder()
	ss := &serverSpans{sb: rec.buf(4 * len(in.pool))}
	d2, hs2, err := startDaemon(spanIndex{server.ShardedIndex(sh), ss}, ss.middleware)
	if err != nil {
		return nil, err
	}
	defer d2.stop(hs2)
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 16
	ht := &headerTransport{base: base}
	cl2, err := client.New(d2.addr, client.Options{HTTPClient: &http.Client{Transport: ht}})
	if err != nil {
		return nil, err
	}
	defer cl2.Close()
	tphases := servedPhases(cl2, in.pool)
	if _, err := prime(ctx, tphases[:1]); err != nil { // connections and handler warm-up
		return nil, err
	}

	// Poll /v1/stats beside the traced pass for the admission queue depth.
	stopPoll := make(chan struct{})
	polled := make(chan int, 1)
	go func() {
		maxQueued := 0
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				polled <- maxQueued
				return
			case <-tick.C:
				if st, err := cl2.Stats(ctx); err == nil && st.Server.Queued > maxQueued {
					maxQueued = st.Server.Queued
				}
			}
		}
	}()
	ioBefore, _ := sh.Stats()
	attemptsBefore := ht.attempts.Load()
	traced := tracedPasses(ctx, rec, tphases[:1])
	attempts := ht.attempts.Load() - attemptsBefore
	ioAfter, _ := sh.Stats()
	close(stopPoll)
	out.set("server.queued_max", float64(<-polled), 1)
	if traced[0].err != nil {
		return nil, fmt.Errorf("traced pass: %w", traced[0].err)
	}
	n := tphases[0].ops
	ioRows(ioAfter.Sub(ioBefore), n, out)
	out.set("obs.trace_overhead_pct", overheadPct(lastP50(passes[0]), lastP50(traced)), n)
	stats, err := cl2.Stats(ctx)
	if err != nil {
		return nil, err
	}
	out.set("server.rejected_429", float64(stats.Server.Rejected), 1)
	out.set("client.retries", float64(attempts)-float64(n), n)
	out.set("client.failed", float64(traced[0].failed), n)
	out.set("gausstree.bulkload_s", bulkS, 1)

	if err := servedPeel(ctx, cfg, in, sh, cl2, rec, ss, procs, out); err != nil {
		return nil, err
	}
	return res, writeSpans(cfg.spans, wServed, rec.all())
}

// servedPeel times the first peelN pool queries with one client at every
// depth of the served path, fills the client/server/facade/shard/core rows
// from the chain, and measures the remaining served-only layer rows. It is
// called on one P; procs is the GOMAXPROCS the run started with.
func servedPeel(ctx context.Context, cfg runConfig, in *inputs, sh *gausstree.Sharded, cl *client.Client, rec *recorder, ss *serverSpans, procs int, out values) error {
	qs := in.pool[:peelN(cfg.sz)]

	// Twin engine: four core trees bulk-loaded through the same hash
	// partition NewSharded uses, so every shard tree is identical.
	trees := make([]*core.Tree, servedShards)
	var twins []*twin
	defer func() {
		for _, t := range twins {
			t.close()
		}
	}()
	for i := range trees {
		t, err := emptyTwin(in.dim)
		if err != nil {
			return err
		}
		trees[i] = t.tree
		twins = append(twins, t)
	}
	eng, err := shard.New(trees, shard.HashByID())
	if err != nil {
		return err
	}
	if err := eng.BulkLoad(in.vectors); err != nil {
		return err
	}
	single, singleBulkS, err := memTwin(in.dim, in.vectors)
	if err != nil {
		return err
	}
	twins = append(twins, single)
	out.set("core.bulkload_vectors_per_s", float64(len(in.vectors))/singleBulkS, len(in.vectors))

	// Warm every depth and take the exact shard counters on the way.
	var rounds, pages4, slowestNum float64
	for _, q := range qs {
		_, st, err := eng.KMLIQDetail(ctx, q, kK, defaultAccuracy)
		if err != nil {
			return err
		}
		rounds += float64(st.MergeRounds)
		pages4 += float64(st.PageAccesses)
		var slowest uint64
		for _, ps := range st.PerShard {
			if ps.PageAccesses > slowest {
				slowest = ps.PageAccesses
			}
		}
		slowestNum += float64(slowest)
		for _, t := range trees {
			if _, _, err := t.KMLIQ(ctx, q, kK, defaultAccuracy); err != nil {
				return err
			}
		}
	}
	single1, err := coreCounts(ctx, single, qs, out)
	if err != nil {
		return err
	}
	n := float64(len(qs))
	out.set("shard.merge_rounds_per_query", rounds/n, len(qs))
	out.set("shard.pages_amplification", pages4/float64(single1.PageAccesses), len(qs))
	out.set("shard.slowest_shard_pages_share", slowestNum/pages4, len(qs))

	// The chain, one client, back to back per query.
	sb := rec.buf(8 * len(qs))
	serverBefore := len(ss.sb.spans)
	var single50, shard50 []float64
	for i, q := range qs {
		cctx, root := clientSpan(ctx, sb, "Client.KMLIQ")
		_, st, err := cl.KMLIQ(cctx, q, kK)
		rs := sb.end(root)
		if err != nil {
			return fmt.Errorf("peel query %d: %w", i, err)
		}
		rs.Pages = st.PageAccesses
		indexSpan := rs.ID + 2

		si := sb.begin(indexSpan, rs.Req, layerShard, "shard.Engine.KMLIQDetail", true)
		_, dst, err := eng.KMLIQDetail(ctx, q, kK, defaultAccuracy)
		s := sb.end(si)
		if err != nil {
			return err
		}
		s.Pages, s.Nodes, s.Scored = dst.PageAccesses, dst.NodesVisited, dst.VectorsScored
		shard50 = append(shard50, float64(s.dur())/1e3)
		shardSpan := s.ID
		for t, tr := range trees {
			ci := sb.begin(shardSpan, rs.Req, layerCore, "core.Tree.KMLIQ shard "+strconv.Itoa(t), true)
			_, cst, err := tr.KMLIQ(ctx, q, kK, defaultAccuracy)
			c := sb.end(ci)
			if err != nil {
				return err
			}
			c.Pages, c.Nodes, c.Scored = cst.PageAccesses, cst.NodesVisited, cst.VectorsScored
		}
		t1 := time.Now()
		if _, _, err := single.tree.KMLIQ(ctx, q, kK, defaultAccuracy); err != nil {
			return err
		}
		single50 = append(single50, float64(time.Since(t1))/1e3)
	}
	ss.mu.Lock()
	chain := append(append([]span(nil), sb.spans...), ss.sb.spans[serverBefore:]...)
	ss.mu.Unlock()
	layers, _, unattributed := chainLedger(chain)
	out.set("client.roundtrip_self_us", layers[layerClient], len(qs))
	out.set("server.handler_self_us", layers[layerServer], len(qs))
	out.set("gausstree.facade_self_us", layers[layerFacade], len(qs))
	out.set("shard.fanout_self_us", layers[layerShard], len(qs))
	out.set("core.query_us", layers[layerCore], len(qs))
	out.set("unattributed_us", unattributed, len(qs))
	out.set("shard.overhead_ratio", median(shard50)/median(single50), len(qs))

	// Facade allocations and the PR 9 spans, in process on the workload's
	// own Sharded.
	kmliq := func(ctx context.Context, q gausstree.Vector) error {
		_, _, err := sh.KMLIQContext(ctx, q, kK)
		return err
	}
	if err := facadeAllocs(ctx, qs, kmliq, out); err != nil {
		return err
	}
	if err := setObsSpans(ctx, qs, kmliq, out); err != nil {
		return err
	}

	// Handler allocations: ServeHTTP with an in-memory recorder, index
	// allocations removed.
	h := server.New(spanIndex{server.ShardedIndex(sh), ss}, server.Config{Metrics: obs.NewRegistry()})
	handler := h.Handler()
	bodies := make([][]byte, len(qs))
	var matches [][]gausstree.Match
	var qstats []gausstree.QueryStats
	for i, q := range qs {
		if bodies[i], err = json.Marshal(wire.QueryRequest{Query: q, K: kK, TimeoutMS: 30000}); err != nil {
			return err
		}
		ms, st, err := sh.KMLIQContext(ctx, q, kK)
		if err != nil {
			return err
		}
		matches = append(matches, ms)
		qstats = append(qstats, st.Stats)
	}
	bad := 0
	runtime.GC()
	handlerAllocs, _ := mallocs(func() {
		for _, b := range bodies {
			r := httptest.NewRequest(http.MethodPost, "/v1/kmliq", bytes.NewReader(b))
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				bad++
			}
		}
	})
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err = h.Shutdown(sctx)
	cancel()
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d in-memory requests were not answered 200", bad)
	}
	out.set("server.allocs_per_request", handlerAllocs/n-out["gausstree.allocs_per_query"].v, len(qs))
	if err := wireTimes(qs, matches, qstats, out); err != nil {
		return err
	}

	// Batch sharing: 16 queries one after another against the executor
	// with nproc workers, on the twin engine. The workers need their Ps back.
	runtime.GOMAXPROCS(procs)
	ex := query.NewBatchExecutor(eng, runtime.NumCPU())
	var serial, batched []float64
	for b := 0; b+batchSize <= len(qs); b += batchSize {
		reqs := make([]query.Request, batchSize)
		for j := range reqs {
			reqs[j] = query.Request{Kind: query.KindKMLIQ, Query: qs[b+j], K: kK, Accuracy: defaultAccuracy}
		}
		t0 := time.Now()
		for _, r := range reqs {
			if resp := ex.Do(ctx, r); resp.Err != nil {
				return resp.Err
			}
		}
		serial = append(serial, float64(time.Since(t0)))
		t0 = time.Now()
		for _, resp := range ex.Execute(ctx, reqs) {
			if resp.Err != nil {
				return resp.Err
			}
		}
		batched = append(batched, float64(time.Since(t0)))
	}
	out.set("query.batch_speedup", median(serial)/median(batched), len(serial))
	return kernelTimes(single, in.vectors, qs, cfg.sz.kernel, out)
}
