package main

import (
	"context"
	"fmt"
	"runtime"

	gausstree "github.com/gauss-tree/gausstree"
)

// Layer names of the ledger are the repository's module names.
const (
	layerClient = "client"
	layerServer = "internal/server"
	layerFacade = "gausstree"
	layerShard  = "internal/shard"
	layerCore   = "internal/core"
)

// peelN is how many leading pool queries a peel pass times.
func peelN(sz sizes) int {
	if sz.pool < 500 {
		return sz.pool
	}
	return 500
}

// peelInproc times 3-MLIQ for qs at two depths, back to back per query:
// Tree.KMLIQContext on the workload's own tree, then core.Tree.KMLIQ on the
// twin. The twin call is recorded as a peeled child, so the facade's self
// time is the difference. Both trees must already be warm for qs.
func peelInproc(ctx context.Context, rec *recorder, tree *gausstree.Tree, tw *twin, qs []gausstree.Vector) ([]span, error) {
	sb := rec.buf(2 * len(qs))
	for i, q := range qs {
		before, err := tree.Stats()
		if err != nil {
			return nil, err
		}
		req := rec.req()
		root := sb.begin(0, req, layerFacade, "Tree.KMLIQContext", false)
		_, st, err := tree.KMLIQContext(ctx, q, kK)
		s := sb.end(root)
		if err != nil {
			return nil, fmt.Errorf("peel query %d: %w", i, err)
		}
		after, _ := tree.Stats()
		s.Pages, s.Nodes, s.Scored = st.PageAccesses, st.NodesVisited, st.VectorsScored
		s.Physical = after.Sub(before).PhysicalReads
		parent := s.ID

		c := sb.begin(parent, req, layerCore, "core.Tree.KMLIQ", true)
		_, cst, err := tw.tree.KMLIQ(ctx, q, kK, defaultAccuracy)
		cs := sb.end(c)
		if err != nil {
			return nil, fmt.Errorf("peel query %d on twin: %w", i, err)
		}
		cs.Pages, cs.Nodes, cs.Scored = cst.PageAccesses, cst.NodesVisited, cst.VectorsScored
	}
	return sb.spans, nil
}

// ledgerInproc folds the spans of peelInproc into the facade/core rows and
// returns what they leave unattributed of the facade call.
func ledgerInproc(spans []span, out values) (unattributedUS float64) {
	layers, _, unattributed := chainLedger(spans)
	n := len(spans) / 2
	out.set("gausstree.facade_self_us", layers[layerFacade], n)
	out.set("core.query_us", layers[layerCore], n)
	return unattributed
}

// facadeAllocs measures heap allocations per 3-MLIQ through run, with one
// client and nothing else running.
func facadeAllocs(ctx context.Context, qs []gausstree.Vector, run func(ctx context.Context, q gausstree.Vector) error, out values) error {
	var rerr error
	runtime.GC()
	count, bytes := mallocs(func() {
		for _, q := range qs {
			if err := run(ctx, q); err != nil && rerr == nil {
				rerr = err
			}
		}
	})
	if rerr != nil {
		return rerr
	}
	out.set("gausstree.allocs_per_query", count/float64(len(qs)), len(qs))
	out.set("gausstree.bytes_per_query", bytes/float64(len(qs)), len(qs))
	return nil
}

// setObsSpans records the PR 9 span cross-check rows.
func setObsSpans(ctx context.Context, qs []gausstree.Vector, run func(ctx context.Context, q gausstree.Vector) error, out values) error {
	sums, err := obsSpans(ctx, qs, run)
	if err != nil {
		return err
	}
	for _, name := range []string{"kmliq", "kmliq_refine", "merge_round"} {
		if v, ok := sums[name]; ok {
			out.set("obs.span."+name+"_us", v, len(qs))
		}
	}
	return nil
}

// overheadPct is the tracing overhead: how much slower the traced pass's
// median 3-MLIQ was than that of the untraced pass that ran last before it.
// One pass is held against one pass: the window's estimate is a composite of
// every op at its quietest, or on mixed-rw-file a pass on a smaller index.
func overheadPct(untracedP50, tracedP50 float64) float64 {
	return 100 * (tracedP50 - untracedP50) / untracedP50
}

// lastP50 is the median latency of the last of passes.
func lastP50(passes []pass) float64 {
	v, _ := percentile(passes[len(passes)-1].lat, 0.5)
	return v
}
