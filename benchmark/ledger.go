package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/wal"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// defaultAccuracy is gausstree.Options' default Accuracy: peeled calls into
// internal/core must ask for the same certification the facade asks for.
const defaultAccuracy = 1e-6

// sink keeps the results of timed kernel calls alive so the compiler
// cannot remove the calls.
var sink float64

// twin is the benchmark's own core.Tree over the workload's data: the
// public facade hides its engine, so the depth below it is timed on an
// identical tree (bulk loading is deterministic).
type twin struct {
	tree *core.Tree
	mgr  *pagefile.Manager
}

// emptyTwin creates a memory-backed core tree exactly like gausstree.New
// creates its own.
func emptyTwin(dim int) (*twin, error) {
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(pagefile.DefaultPageSize), pagefile.DefaultPageSize, pagefile.WithCacheBytes(50<<20))
	if err != nil {
		return nil, err
	}
	tr, err := core.New(mgr, dim, core.Config{})
	if err != nil {
		mgr.Close()
		return nil, err
	}
	return &twin{tr, mgr}, nil
}

// memTwin bulk-loads vs into an emptyTwin and reports how long that took.
func memTwin(dim int, vs []pfv.Vector) (*twin, float64, error) {
	t, err := emptyTwin(dim)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := t.tree.BulkLoad(vs); err != nil {
		t.close()
		return nil, 0, err
	}
	return t, time.Since(t0).Seconds(), nil
}

// fileTwin opens the committed index at path read-only in spirit: no WAL is
// attached and the twin is never mutated.
func fileTwin(path string, cacheBytes int) (*twin, error) {
	fb, err := pagefile.OpenFile(path)
	if err != nil {
		return nil, err
	}
	mgr, err := pagefile.NewManager(fb, fb.PageSize(), pagefile.WithCacheBytes(cacheBytes))
	if err != nil {
		fb.Close()
		return nil, err
	}
	tr, err := core.Open(mgr)
	if err != nil {
		mgr.Close()
		return nil, err
	}
	return &twin{tr, mgr}, nil
}

func (t *twin) close() { t.mgr.Close() }

// readablePages reads every page of the manager once and returns the ids
// that read cleanly, in order.
func readablePages(mgr *pagefile.Manager) []pagefile.PageID {
	var ids []pagefile.PageID
	for id := 0; id < mgr.NumPages(); id++ {
		if _, err := mgr.Read(pagefile.PageID(id)); err == nil {
			ids = append(ids, pagefile.PageID(id))
		}
	}
	return ids
}

// timeLoop runs f n times, in five equal rounds, and returns the median
// round's nanoseconds per call.
func timeLoop(n int, f func(i int)) float64 {
	const rounds = 5
	per := (n + rounds - 1) / rounds
	var ns []float64
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			f(i)
		}
		ns = append(ns, float64(time.Since(t0))/float64(hi-lo))
	}
	return median(ns)
}

// coreCounts runs 3-MLIQ for qs on the twin, records the exact per-query
// counters of internal/core and returns their sums.
func coreCounts(ctx context.Context, t *twin, qs []pfv.Vector, out values) (query.Stats, error) {
	var agg query.Stats
	early := 0
	for _, q := range qs {
		_, st, err := t.tree.KMLIQ(ctx, q, kK, defaultAccuracy)
		if err != nil {
			return agg, err
		}
		agg = agg.Add(st)
		if st.EarlyTermination {
			early++
		}
	}
	n := float64(len(qs))
	out.set("core.nodes_per_query", float64(agg.NodesVisited)/n, len(qs))
	out.set("core.vectors_scored_per_query", float64(agg.VectorsScored)/n, len(qs))
	out.set("core.candidates_per_query", float64(agg.CandidatesRetained)/n, len(qs))
	out.set("core.early_termination_share", float64(early)/n, len(qs))
	out.set("core.useful_score_ratio", float64(kK)*n/float64(agg.VectorsScored), len(qs))
	out.set("core.height", float64(t.tree.Height()), 1)
	return agg, nil
}

// kernelTimes times the leaf layers below internal/core directly, on the
// workload's own inputs: the bound kernels of internal/gaussian on the
// built tree's leaf-box intervals, the scoring kernels of internal/pfv on
// leaf-capacity column batches of stored vectors, and a cached page read.
func kernelTimes(t *twin, stored, qs []pfv.Vector, calls int, out values) error {
	var boxes []core.ParamBox
	if err := t.tree.WalkLeafBoxes(func(b core.ParamBox, _ int) {
		if len(boxes) < 512 {
			boxes = append(boxes, b)
		}
	}); err != nil {
		return err
	}
	dim := t.tree.Dim()
	comb := t.tree.Config().Combiner
	hull := timeLoop(calls, func(i int) {
		b, q, j := boxes[i%len(boxes)], qs[i%len(qs)], i%dim
		sink += gaussian.LogHull(b.Mu[j], comb.CombineInterval(b.Sigma[j], q.Sigma[j]), q.Mean[j])
	})
	floor := timeLoop(calls, func(i int) {
		b, q, j := boxes[i%len(boxes)], qs[i%len(qs)], i%dim
		sink += gaussian.LogFloor(b.Mu[j], comb.CombineInterval(b.Sigma[j], q.Sigma[j]), q.Mean[j])
	})
	out.set("gaussian.loghull_ns", hull, calls)
	out.set("gaussian.logfloor_ns", floor, calls)

	capLeaf := t.tree.LeafCapacity()
	if capLeaf > len(stored) {
		capLeaf = len(stored)
	}
	var batches []*pfv.Columns
	for lo := 0; lo+capLeaf <= len(stored) && len(batches) < 64; lo += capLeaf {
		batches = append(batches, pfv.ColumnsOf(stored[lo:lo+capLeaf], dim))
	}
	scores := make([]float64, capLeaf)
	scratch := make([]float64, dim)
	ev := pfv.NewJointEvaluator(comb, qs[0])
	rounds := calls / 50
	score := timeLoop(rounds, func(i int) {
		ev.Reset(comb, qs[i%len(qs)])
		ev.ScoreColumns(batches[i%len(batches)], scores)
		sink += scores[0]
	})
	upper := timeLoop(rounds, func(i int) {
		ev.Reset(comb, qs[i%len(qs)])
		ev.UpperBoundColumns(batches[i%len(batches)], scratch, scores)
		sink += scores[0]
	})
	out.set("pfv.score_columns_ns_per_vector", score/float64(capLeaf), rounds*capLeaf)
	out.set("pfv.upper_bound_columns_ns_per_vector", upper/float64(capLeaf), rounds*capLeaf)
	joint := timeLoop(calls, func(i int) {
		sink += pfv.JointLogDensity(comb, stored[i%len(stored)], qs[i%len(qs)])
	})
	out.set("pfv.joint_logdensity_ns", joint, calls)

	// Densities of one leaf batch, summed in log space like a traversal's
	// running Bayes denominator.
	ev.Reset(comb, qs[0])
	ev.ScoreColumns(batches[0], scores)
	var ls gaussian.LogSum
	add := timeLoop(calls, func(i int) { ls.Add(scores[i%len(scores)]) })
	sink += ls.Log()
	out.set("gaussian.logsum_add_ns", add, calls)

	// A cached page read: touch every page once, keep the most recently
	// read quarter of what the cache holds (resident whatever its size),
	// then time reads of those.
	ids := readablePages(t.mgr)
	if keep := t.mgr.CachedPages() / 4; keep > 0 && keep < len(ids) {
		ids = ids[len(ids)-keep:]
	}
	if len(ids) == 0 {
		return fmt.Errorf("no readable page for pagefile.read_hit_ns")
	}
	var c pagefile.Counter
	hit := timeLoop(calls, func(i int) {
		page, _ := t.mgr.ReadCounted(ids[i%len(ids)], &c)
		sink += float64(len(page))
	})
	if c.CacheHits() < uint64(calls)*99/100 {
		return fmt.Errorf("pagefile.read_hit_ns loop hit the cache %d of %d times", c.CacheHits(), calls)
	}
	out.set("pagefile.read_hit_ns", hit, calls)
	return nil
}

// readMissUS times physical page reads of the index file at path: every
// page once after DropCache, so each read goes to the file backend and
// verifies the page's CRC.
func readMissUS(path string, out values) error {
	t, err := fileTwin(path, 1<<20)
	if err != nil {
		return err
	}
	defer t.close()
	ids := readablePages(t.mgr)
	t.mgr.DropCache()
	before := t.mgr.Stats()
	// A stride walk defeats both the 1 MB cache and sequential read-ahead.
	n := len(ids)
	ns := timeLoop(n, func(i int) {
		page, _ := t.mgr.Read(ids[(i*257)%n])
		sink += float64(len(page))
	})
	if got := t.mgr.Stats().Sub(before).PhysicalReads; got < uint64(n)*9/10 {
		return fmt.Errorf("read-miss loop made %d physical reads for %d reads", got, n)
	}
	out.set("pagefile.read_miss_us", ns/1e3, n)
	return nil
}

// writePathTimes times the storage write path on scratch files: a page
// write and a meta commit of internal/pagefile, and the group-commit log
// of internal/wal (durable append, replay of a 1000-record tail).
func writePathTimes(dir string, dim int, fresh []pfv.Vector, out values) error {
	pagePath := filepath.Join(dir, "scratch.pages")
	os.Remove(pagePath)
	fb, err := pagefile.CreateFile(pagePath, pagefile.DefaultPageSize)
	if err != nil {
		return err
	}
	mgr, err := pagefile.NewManager(fb, pagefile.DefaultPageSize)
	if err != nil {
		fb.Close()
		return err
	}
	page := make([]byte, pagefile.DefaultPageSize)
	const writes = 2000
	var werr error
	wns := timeLoop(writes, func(i int) {
		id, err := mgr.Allocate()
		if err == nil {
			page[0] = byte(i)
			err = mgr.Write(id, page)
		}
		if err != nil && werr == nil {
			werr = err
		}
	})
	const commits = 30
	cns := timeLoop(commits, func(i int) {
		if err := mgr.CommitMeta([]byte{byte(i)}); err != nil && werr == nil {
			werr = err
		}
	})
	if err := mgr.Close(); err != nil && werr == nil {
		werr = err
	}
	os.Remove(pagePath)
	if werr != nil {
		return fmt.Errorf("scratch page file: %w", werr)
	}
	out.set("pagefile.write_us", wns/1e3, writes)
	out.set("pagefile.commit_meta_us", cns/1e3, commits)

	logPath := filepath.Join(dir, "scratch.wal")
	l, err := wal.Create(logPath, dim, wal.Options{})
	if err != nil {
		return err
	}
	const appends = 150
	ans := timeLoop(appends, func(i int) {
		lsn, err := l.Append(wal.RecInsert, fresh[i%len(fresh)])
		if err == nil {
			err = l.WaitDurable(lsn)
		}
		if err != nil && werr == nil {
			werr = err
		}
	})
	out.set("wal.append_durable_us", ans/1e3, appends)
	out.set("wal.bytes_per_insert", float64(len(wal.AppendRecord(nil, wal.Record{LSN: 1, Type: wal.RecInsert, Vectors: fresh[:1]}, dim))), 1)
	for i := appends; i < 1000; i++ {
		if _, err := l.Append(wal.RecInsert, fresh[i%len(fresh)]); err != nil && werr == nil {
			werr = err
		}
	}
	if err := l.Close(); err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		os.Remove(logPath)
		return fmt.Errorf("scratch log: %w", werr)
	}
	t0 := time.Now()
	l2, tail, err := wal.Open(logPath, dim, 0, wal.Options{})
	replay := time.Since(t0)
	if err != nil {
		os.Remove(logPath)
		return err
	}
	l2.Close()
	os.Remove(logPath)
	if len(tail) != 1000 {
		return fmt.Errorf("scratch log replayed %d records, want 1000", len(tail))
	}
	out.set("wal.replay_ms_per_1k", float64(replay)/1e6, 1000)
	return nil
}

// wireTimes times encoding/json on the phase's real wire values: the
// QueryRequest a client sends for q and the QueryResponse the server sends
// back for the matches the index returned.
func wireTimes(qs []gausstree.Vector, matches [][]gausstree.Match, stats []gausstree.QueryStats, out values) error {
	n := len(qs)
	reqs := make([]wire.QueryRequest, n)
	resps := make([]wire.QueryResponse, n)
	reqB := make([][]byte, n)
	respB := make([][]byte, n)
	for i := range qs {
		reqs[i] = wire.QueryRequest{Query: qs[i], K: kK, TimeoutMS: 30000}
		resps[i] = wire.QueryResponse{Matches: matches[i], Stats: wire.FromQueryStats(stats[i])}
	}
	var jerr error
	note := func(err error) {
		if err != nil && jerr == nil {
			jerr = err
		}
	}
	var reqBytes, respBytes int
	runtime.GC()
	allocs, _ := mallocs(func() {
		out.set("wire.request_encode_ns", timeLoop(n, func(i int) {
			b, err := json.Marshal(reqs[i])
			note(err)
			reqB[i] = b
		}), n)
		out.set("wire.request_decode_ns", timeLoop(n, func(i int) {
			var r wire.QueryRequest
			note(json.Unmarshal(reqB[i], &r))
		}), n)
		out.set("wire.response_encode_ns", timeLoop(n, func(i int) {
			b, err := json.Marshal(resps[i])
			note(err)
			respB[i] = b
		}), n)
		out.set("wire.response_decode_ns", timeLoop(n, func(i int) {
			var r wire.QueryResponse
			note(json.Unmarshal(respB[i], &r))
		}), n)
	})
	if jerr != nil {
		return fmt.Errorf("wire codec: %w", jerr)
	}
	for i := range qs {
		reqBytes += len(reqB[i])
		respBytes += len(respB[i])
	}
	out.set("wire.request_bytes", float64(reqBytes)/float64(n), n)
	out.set("wire.response_bytes", float64(respBytes)/float64(n), n)
	out.set("wire.allocs_per_roundtrip", allocs/float64(n), n)
	return nil
}

// obsSpans runs one traced query per q through run with a PR 9 trace
// attached and returns, per span name, the mean of the span time summed
// within a query — the program's own view, kept as a cross-check of the
// benchmark-side ledger.
func obsSpans(ctx context.Context, qs []gausstree.Vector, run func(ctx context.Context, q gausstree.Vector) error) (map[string]float64, error) {
	sums := make(map[string]float64)
	for _, q := range qs {
		tr := obs.NewTrace("")
		err := run(obs.WithTrace(ctx, tr), q)
		for _, sp := range tr.Spans() {
			sums[sp.Name] += float64(sp.DurUS)
		}
		tr.Release()
		if err != nil {
			return nil, err
		}
	}
	for name := range sums {
		sums[name] /= float64(len(qs))
	}
	return sums, nil
}
