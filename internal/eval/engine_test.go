package eval

import (
	"context"
	"math"
	"testing"

	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

// TestEngineConformance drives all four backends through the query.Engine
// interface on one shared data set and asserts they produce identical
// answers. Queries are exact clones of stored vectors, so the generating
// object dominates and even the X-tree's box filter (which in general
// permits false dismissals) must locate it.
func TestEngineConformance(t *testing.T) {
	e, ds, _ := smallWorld(t, 1200, 1)
	ctx := context.Background()
	engines := e.All()

	sortedIDs := func(rs []query.Result) []uint64 {
		return query.IDs(rs)
	}

	for trial := 0; trial < 15; trial++ {
		src := ds.Vectors[(trial*97)%len(ds.Vectors)]
		q := src.Clone()
		q.ID = 0

		// Top-1 identification must agree across all four engines.
		for _, eng := range engines {
			res, stats, err := eng.Engine.KMLIQRanked(ctx, q, 1)
			if err != nil {
				t.Fatalf("%s ranked: %v", eng.Engine.Name(), err)
			}
			if len(res) != 1 || res[0].Vector.ID != src.ID {
				t.Errorf("trial %d %s: top-1 = %v, want %d", trial, eng.Engine.Name(), sortedIDs(res), src.ID)
			}
			if stats.PageAccesses == 0 {
				t.Errorf("trial %d %s: zero page accesses reported", trial, eng.Engine.Name())
			}
		}

		// The exact engines (scan, VA-file, Gauss-tree — everything but the
		// X-tree approximation) must return identical sorted k=5 rankings.
		var want []uint64
		for _, eng := range engines {
			if eng.Engine.Name() == "x-tree" {
				continue
			}
			res, _, err := eng.Engine.KMLIQRanked(ctx, q, 5)
			if err != nil {
				t.Fatalf("%s ranked k=5: %v", eng.Engine.Name(), err)
			}
			ids := sortedIDs(res)
			if want == nil {
				want = ids
				continue
			}
			if len(ids) != len(want) {
				t.Fatalf("trial %d %s: %d results, want %d", trial, eng.Engine.Name(), len(ids), len(want))
			}
			for i := range want {
				if ids[i] != want[i] {
					t.Errorf("trial %d %s: rank %d = %d, baseline %d",
						trial, eng.Engine.Name(), i, ids[i], want[i])
				}
			}
		}
	}
}

// TestEngineEmptyResultsNonNil asserts the cross-engine nil-vs-empty
// contract: a query matching nothing returns []Result{} (never nil) from
// every backend, so the serving layer's JSON encoder emits [] instead of
// null regardless of which engine answered. A maximally uncertain query
// spreads the posterior over the whole database, so no object comes close
// to a 0.999 threshold on any engine.
func TestEngineEmptyResultsNonNil(t *testing.T) {
	e, ds, _ := smallWorld(t, 900, 1)
	ctx := context.Background()
	sigma := make([]float64, ds.Dim)
	for i := range sigma {
		sigma[i] = 50
	}
	q, err := pfv.New(0, append([]float64(nil), ds.Vectors[0].Mean...), sigma)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range e.All() {
		res, _, err := eng.Engine.TIQ(ctx, q, 0.999, 0)
		if err != nil {
			t.Fatalf("%s TIQ: %v", eng.Engine.Name(), err)
		}
		if len(res) != 0 {
			t.Fatalf("%s TIQ: %d results, expected an empty answer set", eng.Engine.Name(), len(res))
		}
		if res == nil {
			t.Errorf("%s TIQ: nil results, want []Result{}", eng.Engine.Name())
		}
		// A NaN threshold is refused before a page is read, as the façade
		// refuses it, not answered with an empty set.
		if res, st, err := eng.Engine.TIQ(ctx, q, math.NaN(), 0); err == nil || st.PageAccesses != 0 {
			t.Errorf("%s TIQ(NaN): %d results, %d pages, err %v; want an error and no page read", eng.Engine.Name(), len(res), st.PageAccesses, err)
		}
	}
}

// TestEngineStatsNonZero asserts every engine × query type reports page
// accesses on a non-trivial data set — the acceptance bar for the per-query
// stats plumbing.
func TestEngineStatsNonZero(t *testing.T) {
	e, ds, _ := smallWorld(t, 800, 1)
	ctx := context.Background()
	q := ds.Vectors[17].Clone()
	q.ID = 0
	for _, eng := range e.All() {
		name := eng.Engine.Name()
		if _, st, err := eng.Engine.KMLIQ(ctx, q, 3, 0); err != nil || st.PageAccesses == 0 {
			t.Errorf("%s KMLIQ: stats=%v err=%v", name, st, err)
		}
		if _, st, err := eng.Engine.KMLIQRanked(ctx, q, 3); err != nil || st.PageAccesses == 0 {
			t.Errorf("%s KMLIQRanked: stats=%v err=%v", name, st, err)
		}
		if _, st, err := eng.Engine.TIQ(ctx, q, 0.5, 0); err != nil || st.PageAccesses == 0 {
			t.Errorf("%s TIQ: stats=%v err=%v", name, st, err)
		}
	}
}

// TestEngineCancellation proves a cancelled context aborts every engine
// promptly with ctx.Err().
func TestEngineCancellation(t *testing.T) {
	e, ds, _ := smallWorld(t, 800, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the very first page read must not happen
	q := ds.Vectors[3].Clone()
	q.ID = 0
	for _, eng := range e.All() {
		name := eng.Engine.Name()
		if _, _, err := eng.Engine.KMLIQ(ctx, q, 3, 0); err != context.Canceled {
			t.Errorf("%s KMLIQ on cancelled ctx: err=%v, want context.Canceled", name, err)
		}
		if _, _, err := eng.Engine.KMLIQRanked(ctx, q, 3); err != context.Canceled {
			t.Errorf("%s KMLIQRanked on cancelled ctx: err=%v, want context.Canceled", name, err)
		}
		if _, _, err := eng.Engine.TIQ(ctx, q, 0.5, 0); err != context.Canceled {
			t.Errorf("%s TIQ on cancelled ctx: err=%v, want context.Canceled", name, err)
		}
	}
}

// TestBatchExecutorAgainstSequential runs a query batch through the worker
// pool and verifies the responses equal individually executed queries.
func TestBatchExecutorAgainstSequential(t *testing.T) {
	e, ds, qs := smallWorld(t, 1200, 24)
	ctx := context.Background()
	reqs := make([]query.Request, 0, 2*len(qs))
	for i, q := range qs {
		reqs = append(reqs, query.Request{Kind: query.KindKMLIQRanked, Query: q.Vector, K: 1 + i%4})
		reqs = append(reqs, query.Request{Kind: query.KindTIQ, Query: q.Vector, PTheta: 0.2})
	}
	_ = ds
	ex := query.NewBatchExecutor(e.Tree, 4)
	resps := ex.Execute(ctx, reqs)
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(reqs))
	}
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		want := ex.Do(ctx, reqs[i])
		if len(resp.Results) != len(want.Results) {
			t.Fatalf("request %d: batch %d results, sequential %d", i, len(resp.Results), len(want.Results))
		}
		for j := range want.Results {
			if resp.Results[j].Vector.ID != want.Results[j].Vector.ID {
				t.Errorf("request %d rank %d: batch %d vs sequential %d",
					i, j, resp.Results[j].Vector.ID, want.Results[j].Vector.ID)
			}
		}
		if resp.Stats.PageAccesses == 0 {
			t.Errorf("request %d: zero page accesses", i)
		}
	}
}

// TestBatchExecutorCancellation verifies that cancelling the batch context
// marks unexecuted requests with the context error.
func TestBatchExecutorCancellation(t *testing.T) {
	e, _, qs := smallWorld(t, 800, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]query.Request, 0, len(qs))
	for _, q := range qs {
		reqs = append(reqs, query.Request{Kind: query.KindKMLIQRanked, Query: q.Vector, K: 1})
	}
	for i, resp := range query.NewBatchExecutor(e.Tree, 2).Execute(ctx, reqs) {
		if resp.Err != context.Canceled {
			t.Errorf("request %d: err=%v, want context.Canceled", i, resp.Err)
		}
	}
}
