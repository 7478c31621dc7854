package shard

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/query"
)

// TestOneShardIsItsTree pins that a one-shard engine answers with its tree's
// own stand-alone query and runs no coordinator: the tree's results to the
// bit, the tree's statistics as its one shard's in one merge round, the
// tree's trace spans and no merge_round, and — asked without the per-shard
// breakdown, as a Tree asks — no allocation beyond the tree's query.
func TestOneShardIsItsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	vs := clustered(rng, 800, 3, 5)
	_, engines := buildEngines(t, vs, 3, 1024, 1)
	e := engines[0]
	tree := e.trees[0]
	q := reobserved(rng, vs[11])
	for _, op := range []struct {
		name  string
		tree  func(context.Context) ([]query.Result, query.Stats, error)
		eng   func(context.Context) ([]query.Result, Stats, error)
		plain func(context.Context) ([]query.Result, query.Stats, error)
	}{
		{
			"ranked",
			func(ctx context.Context) ([]query.Result, query.Stats, error) { return tree.KMLIQRanked(ctx, q, 5) },
			func(ctx context.Context) ([]query.Result, Stats, error) { return e.KMLIQRankedDetail(ctx, q, 5) },
			func(ctx context.Context) ([]query.Result, query.Stats, error) { return e.KMLIQRanked(ctx, q, 5) },
		},
		{
			"kmliq",
			func(ctx context.Context) ([]query.Result, query.Stats, error) { return tree.KMLIQ(ctx, q, 5, 1e-6) },
			func(ctx context.Context) ([]query.Result, Stats, error) { return e.KMLIQDetail(ctx, q, 5, 1e-6) },
			func(ctx context.Context) ([]query.Result, query.Stats, error) { return e.KMLIQ(ctx, q, 5, 1e-6) },
		},
		{
			"tiq",
			func(ctx context.Context) ([]query.Result, query.Stats, error) { return tree.TIQ(ctx, q, 0.01, 1e-6) },
			func(ctx context.Context) ([]query.Result, Stats, error) { return e.TIQDetail(ctx, q, 0.01, 1e-6) },
			func(ctx context.Context) ([]query.Result, query.Stats, error) { return e.TIQ(ctx, q, 0.01, 1e-6) },
		},
	} {
		t.Run(op.name, func(t *testing.T) {
			ctx := context.Background()
			want, wantSt, err := op.tree(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := op.eng(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("the tree answered nothing: the comparison would be vacuous")
			}
			if !slices.EqualFunc(got, want, sameResult) {
				t.Errorf("results differ from the tree's:\n got %+v\nwant %+v", got, want)
			}
			if gotSt.Stats != wantSt || len(gotSt.PerShard) != 1 || gotSt.PerShard[0] != wantSt || gotSt.MergeRounds != 1 {
				t.Errorf("stats %+v, want the tree's %+v as its one shard's in one round", gotSt, wantSt)
			}
			plain, plainSt, err := op.plain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(plain, want, sameResult) || plainSt != wantSt {
				t.Errorf("without the breakdown: stats %+v, want the tree's %+v (results equal: %v)", plainSt, wantSt, slices.EqualFunc(plain, want, sameResult))
			}

			gotSp, wantSp := tracedSpans(t, func(ctx context.Context) error {
				_, _, err := op.eng(ctx)
				return err
			}), tracedSpans(t, func(ctx context.Context) error {
				_, _, err := op.tree(ctx)
				return err
			})
			if len(wantSp) == 0 || !slices.Equal(gotSp, wantSp) {
				t.Errorf("spans %+v, want the tree's %+v", gotSp, wantSp)
			}
			for _, sp := range gotSp {
				if sp.Name == "merge_round" {
					t.Errorf("a one-shard query recorded a merge round: %+v", sp)
				}
			}

			if raceEnabled {
				t.Skip("allocation counts: sync.Pool drops Puts at random under -race")
			}
			treeAllocs := testing.AllocsPerRun(200, func() { op.tree(ctx) })
			engAllocs := testing.AllocsPerRun(200, func() { op.plain(ctx) })
			t.Logf("%.1f allocations per one-shard query, the tree's own %.1f", engAllocs, treeAllocs)
			if engAllocs > treeAllocs {
				t.Errorf("%.1f allocations per one-shard query, the tree's own %.1f: want no more", engAllocs, treeAllocs)
			}
		})
	}
}

func sameResult(a, b query.Result) bool {
	bits := math.Float64bits
	return a.Vector.ID == b.Vector.ID && bits(a.LogDensity) == bits(b.LogDensity) &&
		bits(a.Probability) == bits(b.Probability) &&
		bits(a.ProbLow) == bits(b.ProbLow) && bits(a.ProbHigh) == bits(b.ProbHigh)
}

// tracedSpans runs a query under a trace and returns its spans without their
// clock readings.
func tracedSpans(t *testing.T, run func(context.Context) error) []obs.Span {
	t.Helper()
	tr := obs.NewTrace("")
	defer tr.Release()
	if err := run(obs.WithTrace(context.Background(), tr)); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	for i := range spans {
		spans[i].StartUS, spans[i].DurUS = 0, 0
	}
	return spans
}
