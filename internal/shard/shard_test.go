package shard

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

func clustered(rng *rand.Rand, n, dim, clusters int) []pfv.Vector {
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64()*10 - 5
		}
	}
	vs := make([]pfv.Vector, 0, n)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(clusters)]
		mean := make([]float64, dim)
		sigma := make([]float64, dim)
		for d := range mean {
			sigma[d] = rng.Float64()*0.7 + 0.05
			mean[d] = c[d] + rng.NormFloat64()
		}
		vs = append(vs, pfv.MustNew(uint64(i+1), mean, sigma))
	}
	return vs
}

func reobserved(rng *rand.Rand, src pfv.Vector) pfv.Vector {
	mean := make([]float64, src.Dim())
	sigma := make([]float64, src.Dim())
	for i := range mean {
		sigma[i] = rng.Float64()*0.8 + 0.05
		mean[i] = src.Mean[i] + rng.NormFloat64()*sigma[i]*0.5
	}
	return pfv.MustNew(0, mean, sigma)
}

func newTree(t *testing.T, dim, pageSize int) *core.Tree {
	t.Helper()
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(pageSize), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.New(mgr, dim, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// buildEngines loads the same vectors into an unsharded tree and sharded
// engines with the given shard counts.
func buildEngines(t *testing.T, vs []pfv.Vector, dim, pageSize int, shardCounts ...int) (*core.Tree, []*Engine) {
	t.Helper()
	single := newTree(t, dim, pageSize)
	if err := single.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, 0, len(shardCounts))
	for _, n := range shardCounts {
		trees := make([]*core.Tree, n)
		for i := range trees {
			trees[i] = newTree(t, dim, pageSize)
		}
		e, err := New(trees, HashByID())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BulkLoad(vs); err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	return single, engines
}

// TestConformanceKMLIQRanked: every sharding of the data must produce the
// same ranked top-k (ids and ordering) as the unsharded tree.
func TestConformanceKMLIQRanked(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vs := clustered(rng, 700, 3, 5)
	single, engines := buildEngines(t, vs, 3, 1024, 1, 4)
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		k := rng.Intn(8) + 1
		want, _, err := single.KMLIQRanked(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			got, _, err := e.KMLIQRanked(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: %d results, want %d", e.Name(), trial, len(got), len(want))
			}
			for i := range want {
				if got[i].Vector.ID != want[i].Vector.ID {
					t.Errorf("%s trial %d rank %d: id %d, want %d", e.Name(), trial, i, got[i].Vector.ID, want[i].Vector.ID)
				}
			}
		}
	}
}

// TestConformanceKMLIQ: sharded probabilities must agree with the unsharded
// engine (same ids and ordering), every interval must be certified within
// the requested accuracy, and the exact posterior must lie inside every
// reported interval.
func TestConformanceKMLIQ(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	vs := clustered(rng, 700, 3, 5)
	single, engines := buildEngines(t, vs, 3, 1024, 1, 4)
	ctx := context.Background()
	const accuracy = 1e-4
	for trial := 0; trial < 20; trial++ {
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		k := rng.Intn(6) + 1
		want, _, err := single.KMLIQ(ctx, q, k, accuracy)
		if err != nil {
			t.Fatal(err)
		}
		exact := pfv.Posterior(gaussian.CombineAdditive, vs, q)
		for _, e := range engines {
			got, st, err := e.KMLIQDetail(ctx, q, k, accuracy)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: %d results, want %d", e.Name(), trial, len(got), len(want))
			}
			if len(st.PerShard) != e.NumShards() {
				t.Fatalf("%s: %d per-shard stats, want %d", e.Name(), len(st.PerShard), e.NumShards())
			}
			for i := range want {
				w, g := want[i], got[i]
				if g.Vector.ID != w.Vector.ID {
					t.Errorf("%s trial %d rank %d: id %d, want %d", e.Name(), trial, i, g.Vector.ID, w.Vector.ID)
					continue
				}
				if width := g.ProbHigh - g.ProbLow; width > accuracy+1e-12 {
					t.Errorf("%s trial %d id %d: interval width %v exceeds accuracy", e.Name(), trial, g.Vector.ID, width)
				}
				if math.Abs(g.Probability-w.Probability) > accuracy {
					t.Errorf("%s trial %d id %d: probability %v, unsharded %v", e.Name(), trial, g.Vector.ID, g.Probability, w.Probability)
				}
				p := exact[int(g.Vector.ID-1)]
				if g.ProbLow-1e-12 > p || p > g.ProbHigh+1e-12 {
					t.Errorf("%s trial %d id %d: exact p=%v outside [%v,%v]", e.Name(), trial, g.Vector.ID, p, g.ProbLow, g.ProbHigh)
				}
			}
		}
	}
}

// TestConformanceTIQ: sharded threshold decisions must be exact — the same
// id set as the unsharded engine, ordered the same, every survivor certified
// at or above the threshold and within the accuracy.
func TestConformanceTIQ(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	vs := clustered(rng, 600, 3, 5)
	single, engines := buildEngines(t, vs, 3, 1024, 1, 4)
	ctx := context.Background()
	const accuracy = 1e-3
	for trial := 0; trial < 20; trial++ {
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		for _, pTheta := range []float64{0.1, 0.3, 0.8} {
			want, _, err := single.TIQ(ctx, q, pTheta, accuracy)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range engines {
				got, _, err := e.TIQ(ctx, q, pTheta, accuracy)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s trial %d Pθ=%v: %d results, want %d", e.Name(), trial, pTheta, len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					if g.Vector.ID != w.Vector.ID {
						t.Errorf("%s trial %d Pθ=%v rank %d: id %d, want %d", e.Name(), trial, pTheta, i, g.Vector.ID, w.Vector.ID)
						continue
					}
					if g.ProbLow < pTheta-1e-12 {
						t.Errorf("%s trial %d Pθ=%v id %d: reported but only certified to %v", e.Name(), trial, pTheta, g.Vector.ID, g.ProbLow)
					}
					if width := g.ProbHigh - g.ProbLow; width > accuracy+1e-12 {
						t.Errorf("%s trial %d Pθ=%v id %d: width %v exceeds accuracy", e.Name(), trial, pTheta, g.Vector.ID, width)
					}
				}
			}
		}
	}
}

// TestConcurrentFanOut hammers one sharded engine from many goroutines
// (run under -race this exercises the per-shard goroutine fan-out, the
// shared decoded page-cache entries and the atomic counters), with half the
// queries cancelled mid-flight.
func TestConcurrentFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	vs := clustered(rng, 800, 3, 5)
	_, engines := buildEngines(t, vs, 3, 1024, 4)
	e := engines[0]

	done := make(chan error, 16)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				q := reobserved(rng, vs[rng.Intn(len(vs))])
				ctx, cancel := context.WithCancel(context.Background())
				if i%2 == 1 {
					cancel() // cancelled before the fan-out: must surface ctx.Err
				}
				var err error
				switch i % 3 {
				case 0:
					_, _, err = e.KMLIQ(ctx, q, 5, 1e-4)
				case 1:
					_, _, err = e.KMLIQRanked(ctx, q, 5)
				default:
					_, _, err = e.TIQ(ctx, q, 0.3, 1e-3)
				}
				cancel()
				if err != nil && err != context.Canceled {
					done <- err
					return
				}
				if i%2 == 1 && err == nil {
					// A pre-cancelled context may still win the race on a
					// tiny tree, but the engine must never hang or corrupt
					// state; nothing to assert here.
					_ = err
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMidQueryCancellation: a context cancelled while the fan-out is in
// flight surfaces context.Canceled from every query type, with partial
// statistics.
func TestMidQueryCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vs := clustered(rng, 2000, 3, 6)
	_, engines := buildEngines(t, vs, 3, 512, 4)
	e := engines[0]
	q := reobserved(rng, vs[0])

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.KMLIQ(ctx, q, 3, 1e-6); err != context.Canceled {
		t.Errorf("KMLIQ on cancelled ctx: %v, want context.Canceled", err)
	}
	if _, _, err := e.KMLIQRanked(ctx, q, 3); err != context.Canceled {
		t.Errorf("KMLIQRanked on cancelled ctx: %v, want context.Canceled", err)
	}
	if _, st, err := e.TIQDetail(ctx, q, 0.5, 0); err != context.Canceled {
		t.Errorf("TIQ on cancelled ctx: %v, want context.Canceled", err)
	} else if len(st.PerShard) != 4 {
		t.Errorf("cancelled TIQ returned %d per-shard stats, want 4", len(st.PerShard))
	}
}

// TestAggregatedStats: the embedded aggregate must be the elementwise sum of
// the per-shard breakdown.
func TestAggregatedStats(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vs := clustered(rng, 500, 3, 4)
	_, engines := buildEngines(t, vs, 3, 1024, 4)
	e := engines[0]
	q := reobserved(rng, vs[0])
	_, st, err := e.KMLIQDetail(context.Background(), q, 3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	var sum query.Stats
	for _, p := range st.PerShard {
		sum = sum.Add(p)
	}
	if st.Stats != sum {
		t.Errorf("aggregate %+v != sum of per-shard %+v", st.Stats, sum)
	}
	if st.MergeRounds < 1 {
		t.Errorf("MergeRounds = %d, want >= 1", st.MergeRounds)
	}
	if st.PageAccesses == 0 || st.VectorsScored == 0 {
		t.Errorf("implausible aggregate stats: %+v", st.Stats)
	}
}

// TestEngineValidation: mismatched shards and empty shard lists are refused.
func TestEngineValidation(t *testing.T) {
	if _, err := New(nil, HashByID()); err == nil {
		t.Error("empty shard list accepted")
	}
	a := newTree(t, 2, 1024)
	b := newTree(t, 3, 1024)
	if _, err := New([]*core.Tree{a, b}, HashByID()); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestEmptyShards: queries over empty and partially empty shard sets.
func TestEmptyShards(t *testing.T) {
	trees := make([]*core.Tree, 3)
	for i := range trees {
		trees[i] = newTree(t, 2, 1024)
	}
	e, err := New(trees, HashByID())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := pfv.MustNew(0, []float64{0, 0}, []float64{1, 1})
	if res, _, err := e.KMLIQ(ctx, q, 3, 1e-6); err != nil || len(res) != 0 {
		t.Errorf("empty engine KMLIQ: %v, %d results", err, len(res))
	}
	if res, _, err := e.TIQ(ctx, q, 0.5, 0); err != nil || len(res) != 0 {
		t.Errorf("empty engine TIQ: %v, %d results", err, len(res))
	}
	// One lone vector: it explains everything, P = 1.
	if err := e.Insert(pfv.MustNew(42, []float64{1, 1}, []float64{0.5, 0.5})); err != nil {
		t.Fatal(err)
	}
	res, _, err := e.KMLIQ(ctx, q, 2, 1e-6)
	if err != nil || len(res) != 1 {
		t.Fatalf("lone-vector KMLIQ: %v, %d results", err, len(res))
	}
	if res[0].Vector.ID != 42 || res[0].ProbLow < 1-1e-9 {
		t.Errorf("lone vector got %+v, want id 42 with P=1", res[0])
	}
}
