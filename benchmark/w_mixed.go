package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pagefile"
)

const layerMutation = "gausstree.mutation"

// deleteEvery makes every fifth writer op a Delete of the oldest insert of
// this run that is still stored.
const deleteEvery = 5

// writerLog is what the single writer goroutine did. Every slice is
// preallocated; the writer appends within capacity only.
type writerLog struct {
	latUS    []float64 // call to durable ack, in op order
	endNS    []int64   // when each op was acknowledged, since the window start
	inserted int       // fresh[:inserted] were acked as inserted
	deleted  int       // fresh[:deleted] were acked as deleted
	failed   int
	err      error
}

// write runs the writer loop until stop is closed or the fresh vectors run
// out: durable Insert of the next fresh vector, every fifth op a Delete.
func (w *writerLog) write(tree *gausstree.Tree, fresh []gausstree.Vector, origin time.Time, stop <-chan struct{}, sb *spanBuf) {
	for op := 1; ; op++ {
		select {
		case <-stop:
			return
		default:
		}
		del := op%deleteEvery == 0 && w.deleted < w.inserted
		if !del && w.inserted == len(fresh) {
			return
		}
		var si int
		var ioBefore pagefile.Stats
		var walBefore gausstree.WALStats
		if sb != nil {
			ioBefore, _ = tree.Stats()
			walBefore, _ = tree.WALStats()
			name := "Tree.Insert"
			if del {
				name = "Tree.Delete"
			}
			si = sb.begin(0, sb.rec.req(), layerMutation, name, false)
		}
		t0 := time.Now()
		var err error
		if del {
			var found bool
			found, err = tree.Delete(fresh[w.deleted])
			if err == nil && !found {
				err = fmt.Errorf("delete of acked insert id %d found nothing", fresh[w.deleted].ID)
			}
		} else {
			err = tree.Insert(fresh[w.inserted])
		}
		now := time.Now()
		if sb != nil {
			s := sb.end(si)
			io, _ := tree.Stats()
			ws, _ := tree.WALStats()
			s.Writes, s.Fsyncs = io.Sub(ioBefore).Writes, ws.Fsyncs-walBefore.Fsyncs
		}
		if err != nil {
			w.failed++
			if w.err == nil {
				w.err = fmt.Errorf("writer op %d: %w", op, err)
			}
			continue
		}
		if del {
			w.deleted++
		} else {
			w.inserted++
		}
		w.latUS = append(w.latUS, float64(now.Sub(t0))/1e3)
		w.endNS = append(w.endNS, int64(now.Sub(origin)))
	}
}

// crashCheck copies index and log as they are, without Close — the image a
// kill -9 would leave — opens the copy, and requires every acked insert
// present, every acked delete absent and the invariants clean.
func crashCheck(work, image string, fresh []gausstree.Vector, w *writerLog) error {
	defer removeIndex(image)
	if err := copyIndex(image, work); err != nil {
		return err
	}
	tr, err := gausstree.Open(image)
	if err != nil {
		return fmt.Errorf("crash image does not open: %w", err)
	}
	defer tr.Close()
	if err := tr.CheckInvariants(); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	firstFresh := fresh[0].ID
	present := make(map[uint64]bool)
	if err := tr.ForEach(func(v gausstree.Vector) error {
		if v.ID >= firstFresh {
			present[v.ID] = true
		}
		return nil
	}); err != nil {
		return err
	}
	for i := 0; i < w.inserted; i++ {
		id := fresh[i].ID
		if i < w.deleted && present[id] {
			return fmt.Errorf("crash image still holds acked delete id %d", id)
		}
		if i >= w.deleted && !present[id] {
			return fmt.Errorf("crash image lost acked insert id %d", id)
		}
	}
	if len(present) != w.inserted-w.deleted {
		return fmt.Errorf("crash image holds %d fresh vectors, acked state has %d", len(present), w.inserted-w.deleted)
	}
	return nil
}

// runMixed is the mixed-rw-file workload.
func runMixed(ctx context.Context, cfg runConfig) (*runResult, error) {
	// Enough fresh vectors that the writer cannot run out: durable inserts
	// take milliseconds each.
	nFresh := int(2000*cfg.seconds) + 4000
	res, in, genS, err := begin(wMixed, cfg, nFresh)
	if err != nil {
		return nil, err
	}

	base := filepath.Join(cfg.scratch, "mixed-base.gtree")
	work := filepath.Join(cfg.scratch, "mixed-work.gtree")
	defer removeIndex(base)
	defer removeIndex(work)
	opts := gausstree.Options{CacheBytes: cfg.sz.cacheBytes}
	var tree *gausstree.Tree
	var bulkS, openMS float64
	var kAns []answer
	setupS, err := medianSetup(func() error {
		var err error
		if bulkS, err = buildFile(base, in, gausstree.LeafExact); err != nil {
			return err
		}
		removeIndex(work)
		if err := copyIndex(work, base); err != nil {
			return err
		}
		t := time.Now()
		if tree, err = gausstree.Open(work, opts); err != nil {
			return err
		}
		openMS = float64(time.Since(t)) / 1e6
		kAns, _, err = treeAnswers(ctx, tree, in.pool, cfg.sz.checked, false)
		return err
	}, func() error { return tree.Close() })
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			tree.Close()
		}
	}()
	res.e2e.set("setup_s", genS+setupS, setups)

	reader := phase{name: "kmliq", ops: len(in.pool), reads: 1, do: treeOp(tree, in.pool, false)}
	primed, err := prime(ctx, []phase{reader})
	if err != nil {
		return nil, err
	}

	// The window: the reader makes whole passes until the time is up; the
	// writer runs beside it and stops with it.
	maxPasses := int(cfg.seconds/primed[0].wall) + 2
	lats := make([][]float64, maxPasses)
	for i := range lats {
		lats[i] = make([]float64, reader.ops)
	}
	wl := &writerLog{latUS: make([]float64, 0, 2*nFresh), endNS: make([]int64, 0, 2*nFresh)}
	ioBefore, _ := tree.Stats()
	walBefore, _ := tree.WALStats()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	origin := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		wl.write(tree, in.fresh, origin, stop, nil)
	}()
	var passes []pass
	var passEnd []int64
	for i := 0; i < maxPasses && (i == 0 || time.Since(origin).Seconds()+primed[0].wall/2 < cfg.seconds); i++ {
		passes = append(passes, runPass(ctx, reader, lats[i], nil))
		passEnd = append(passEnd, int64(time.Since(origin)))
	}
	close(stop)
	wg.Wait()
	ioDelta, _ := tree.Stats()
	ioDelta = ioDelta.Sub(ioBefore)
	walAfter, _ := tree.WALStats()

	readMetrics(res, []phase{reader}, [][]pass{passes}, middle)
	// pages_per_query is the index as built (the priming pass, before the
	// writer starts): exact, like on the read workloads. What the reader
	// saw while the index grew is a ledger row.
	res.layer.set("core.pages_per_query_under_writes", res.e2e["pages_per_query"].v, len(passes)*reader.ops)
	res.e2e.set("pages_per_query", float64(primed[0].pages)/float64(reader.ops), reader.ops)
	// Writer p50 and rate per reader pass, then the median over passes.
	var p50s, rates []float64
	lo, begin := 0, int64(0)
	for _, end := range passEnd {
		hi := lo + sort.Search(len(wl.endNS)-lo, func(i int) bool { return wl.endNS[lo+i] > end })
		if hi > lo {
			slice := append([]float64(nil), wl.latUS[lo:hi]...)
			sort.Float64s(slice)
			v, _ := percentile(slice, 0.50)
			p50s = append(p50s, v)
		}
		rates = append(rates, float64(hi-lo)/(float64(end-begin)/1e9))
		lo, begin = hi, end
	}
	acked := len(wl.latUS)
	res.attempted += acked + wl.failed
	res.fail(wl.failed, wl.err)
	if len(p50s) == 0 {
		return nil, fmt.Errorf("the writer acknowledged nothing in %.1f s", cfg.seconds)
	}
	res.e2e.set("insert_p50_us", median(p50s), acked)
	// A reader pass holds some 500 mutations, too few for ten samples beyond
	// a p99, so the p99 pools the window. It is reported even when a slow
	// disk leaves the window under 1000 samples; the count is printed
	// beside it and says how far to trust it.
	all := append([]float64(nil), wl.latUS...)
	sort.Float64s(all)
	p99, _ := percentile(all, 0.99)
	res.e2e.set("insert_p99_us", p99, acked)
	res.e2e.set("inserts_per_s", median(rates), acked)
	res.e2e.set("heap_mb", heapMB(), 1)
	res.check(in, kAns, nil)
	res.attempted++
	if err := crashCheck(work, filepath.Join(cfg.scratch, "mixed-crash.gtree"), in.fresh, wl); err != nil {
		res.fail(1, err)
	}
	res.finish()
	if !cfg.trace {
		return res, nil
	}

	// Traced run: a short window with spans around every reader and writer
	// call, then the peel and the write-path layers on scratch files.
	out := res.layer
	mutations := float64(acked)
	out.set("pagefile.writes_per_insert", float64(ioDelta.Writes)/mutations, acked)
	out.set("pagefile.bytes_written_per_user_byte", float64(ioDelta.Writes)*pagefile.DefaultPageSize/(mutations*float64(8+16*in.dim)), acked)
	out.set("wal.fsyncs_per_insert", float64(walAfter.Fsyncs-walBefore.Fsyncs)/mutations, acked)
	out.set("wal.mean_group_size", float64(walAfter.Records-walBefore.Records)/float64(walAfter.Fsyncs-walBefore.Fsyncs), acked)
	ioRows(ioDelta, len(passes)*reader.ops, out)
	out.set("gausstree.open_ms", openMS, 1)
	out.set("gausstree.bulkload_s", bulkS, 1)
	out.set("core.bulkload_vectors_per_s", float64(len(in.vectors))/bulkS, len(in.vectors))

	rec := newRecorder()
	twl := &writerLog{latUS: make([]float64, 0, nFresh), endNS: make([]int64, 0, nFresh)}
	rest := in.fresh[wl.inserted:]
	wsb := rec.buf(nFresh)
	stop = make(chan struct{})
	origin = time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		twl.write(tree, rest, origin, stop, wsb)
	}()
	traced := tracedPasses(ctx, rec, []phase{reader})
	close(stop)
	wg.Wait()
	if traced[0].err != nil || twl.err != nil {
		return nil, fmt.Errorf("traced window: %v %v", traced[0].err, twl.err)
	}
	out.set("obs.trace_overhead_pct", overheadPct(lastP50(passes), lastP50(traced)), reader.ops)

	t := time.Now()
	err = tree.Close()
	closed = true
	if err != nil {
		return nil, err
	}
	out.set("gausstree.close_ms", float64(time.Since(t))/1e6, 1)

	// The reader's chain on the pristine base file with the workload's
	// cache budget, without the writer.
	qs := in.pool[:peelN(cfg.sz)]
	quiet, err := gausstree.Open(base, opts)
	if err != nil {
		return nil, err
	}
	defer quiet.Close()
	tw, err := fileTwin(base, cfg.sz.cacheBytes)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	if _, err := coreCounts(ctx, tw, qs, out); err != nil {
		return nil, err
	}
	kmliq := func(ctx context.Context, q gausstree.Vector) error {
		_, _, err := quiet.KMLIQContext(ctx, q, kK)
		return err
	}
	for _, q := range qs {
		if err := kmliq(ctx, q); err != nil {
			return nil, err
		}
	}
	peeled, err := peelInproc(ctx, rec, quiet, tw, qs)
	if err != nil {
		return nil, err
	}
	out.set("unattributed_us", ledgerInproc(peeled, out), len(qs))
	if err := facadeAllocs(ctx, qs, kmliq, out); err != nil {
		return nil, err
	}
	if err := setObsSpans(ctx, qs, kmliq, out); err != nil {
		return nil, err
	}
	if err := kernelTimes(tw, in.vectors, qs, cfg.sz.kernel, out); err != nil {
		return nil, err
	}
	if err := readMissUS(base, out); err != nil {
		return nil, err
	}
	if err := writePathTimes(cfg.scratch, in.dim, in.fresh, out); err != nil {
		return nil, err
	}

	// internal/core's own mutation cost: a memory-backed twin, no log.
	mem, _, err := memTwin(in.dim, in.vectors)
	if err != nil {
		return nil, err
	}
	defer mem.close()
	nMut := len(qs)
	var merr error
	ins := timeLoop(nMut, func(i int) {
		if err := mem.tree.Insert(in.fresh[i]); err != nil && merr == nil {
			merr = err
		}
	})
	del := timeLoop(nMut, func(i int) {
		if _, err := mem.tree.Delete(in.fresh[i]); err != nil && merr == nil {
			merr = err
		}
	})
	if merr != nil {
		return nil, fmt.Errorf("memory-backed mutations: %w", merr)
	}
	out.set("core.insert_us", ins/1e3, nMut)
	out.set("core.delete_us", del/1e3, nMut)
	return res, writeSpans(cfg.spans, wMixed, rec.all())
}
