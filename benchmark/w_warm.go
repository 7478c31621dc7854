package main

import (
	"context"
	"fmt"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pagefile"
)

// treeOp returns the op that answers pool query i on an in-process Tree:
// 3-MLIQ, or TIQ(0.8) when tiq is set. In the traced run it records one
// root span per call with the query's counts and the physical reads the
// page manager made meanwhile.
func treeOp(tree *gausstree.Tree, pool []gausstree.Vector, tiq bool) opFunc {
	name := "Tree.KMLIQContext"
	if tiq {
		name = "Tree.TIQContext"
	}
	return func(ctx context.Context, i int, sb *spanBuf) (uint64, error) {
		var si int
		var physBefore uint64
		if sb != nil {
			io, _ := tree.Stats()
			physBefore = io.PhysicalReads
			si = sb.begin(0, sb.rec.req(), layerFacade, name, false)
		}
		var st gausstree.QueryStats
		var err error
		if tiq {
			_, st, err = tree.TIQContext(ctx, pool[i], tiqTheta)
		} else {
			_, st, err = tree.KMLIQContext(ctx, pool[i], kK)
		}
		if sb != nil {
			s := sb.end(si)
			io, _ := tree.Stats()
			s.Pages, s.Nodes, s.Scored = st.PageAccesses, st.NodesVisited, st.VectorsScored
			s.Physical = io.PhysicalReads - physBefore
		}
		return st.PageAccesses, err
	}
}

// treeAnswers collects the answers to the leading checked pool queries,
// for the oracle; it doubles as the set-up's warm-up.
func treeAnswers(ctx context.Context, tree *gausstree.Tree, pool []gausstree.Vector, n int, withTIQ bool) (kmliq, tiq []answer, err error) {
	for i := 0; i < n; i++ {
		ms, _, err := tree.KMLIQContext(ctx, pool[i], kK)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up kmliq %d: %w", i, err)
		}
		kmliq = append(kmliq, answer{pool[i], ms})
		if withTIQ {
			ms, _, err := tree.TIQContext(ctx, pool[i], tiqTheta)
			if err != nil {
				return nil, nil, fmt.Errorf("warm-up tiq %d: %w", i, err)
			}
			tiq = append(tiq, answer{pool[i], ms})
		}
	}
	return kmliq, tiq, nil
}

// ioRows records the page-manager rows of the traced pass from the counter
// deltas d taken around it.
func ioRows(d pagefile.Stats, queries int, out values) {
	out.set("pagefile.physical_reads_per_query", float64(d.PhysicalReads)/float64(queries), queries)
	out.set("pagefile.seeks_per_query", float64(d.Seeks)/float64(queries), queries)
	rate := 0.0
	if d.LogicalReads > 0 {
		rate = float64(d.CacheHits) / float64(d.LogicalReads)
	}
	out.set("pagefile.cache_hit_rate", rate, int(d.LogicalReads))
}

// runWarm is the warm-inproc workload.
func runWarm(ctx context.Context, cfg runConfig) (*runResult, error) {
	res, in, genS, err := begin(wWarm, cfg, 0)
	if err != nil {
		return nil, err
	}

	var tree *gausstree.Tree
	var bulkS float64
	var kAns, tAns []answer
	setupS, err := medianSetup(func() error {
		tr, err := gausstree.New(in.dim)
		if err != nil {
			return err
		}
		tree = tr
		t := time.Now()
		if err := tr.BulkLoad(in.vectors); err != nil {
			return err
		}
		bulkS = time.Since(t).Seconds()
		kAns, tAns, err = treeAnswers(ctx, tr, in.pool, cfg.sz.checked, true)
		return err
	}, func() error { return tree.Close() })
	if tree != nil {
		defer tree.Close()
	}
	if err != nil {
		return nil, err
	}
	res.e2e.set("setup_s", genS+setupS, setups)

	phases := []phase{
		{name: "kmliq", ops: len(in.pool), reads: 1, do: treeOp(tree, in.pool, false)},
		{name: "tiq", ops: len(in.pool) / 2, reads: 1, do: treeOp(tree, in.pool, true)}, // half the pool: shorter rounds, more of them
	}
	passes := window(ctx, phases, cfg.seconds)
	readMetrics(res, phases, passes, quietest)
	res.e2e.set("heap_mb", heapMB(), 1)
	res.check(in, kAns, tAns)
	res.finish()
	if !cfg.trace {
		return res, nil
	}

	// Traced run: the same passes with a span around every facade call,
	// then the peel against a twin core tree, then the leaf layers.
	out := res.layer
	rec := newRecorder()
	before, _ := tree.Stats()
	traced := tracedPasses(ctx, rec, phases[:1])
	after, _ := tree.Stats()
	ioRows(after.Sub(before), len(in.pool), out)
	out.set("obs.trace_overhead_pct", overheadPct(lastP50(passes[0]), lastP50(traced)), len(in.pool))

	tw, twinBulkS, err := memTwin(in.dim, in.vectors)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	out.set("gausstree.bulkload_s", bulkS, 1)
	out.set("core.bulkload_vectors_per_s", float64(len(in.vectors))/twinBulkS, len(in.vectors))
	qs := in.pool[:peelN(cfg.sz)]
	if _, err := coreCounts(ctx, tw, qs, out); err != nil { // also warms the twin
		return nil, err
	}
	peeled, err := peelInproc(ctx, rec, tree, tw, qs)
	if err != nil {
		return nil, err
	}
	out.set("unattributed_us", ledgerInproc(peeled, out), len(qs))
	kmliq := func(ctx context.Context, q gausstree.Vector) error {
		_, _, err := tree.KMLIQContext(ctx, q, kK)
		return err
	}
	if err := facadeAllocs(ctx, qs, kmliq, out); err != nil {
		return nil, err
	}
	if err := setObsSpans(ctx, qs, kmliq, out); err != nil {
		return nil, err
	}
	if err := kernelTimes(tw, in.vectors, qs, cfg.sz.kernel, out); err != nil {
		return nil, err
	}
	return res, writeSpans(cfg.spans, wWarm, rec.all())
}
