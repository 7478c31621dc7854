package shard

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

// adversarial draws n vectors that stress the log-space kernel rather than
// the geometry: within one vector σ spans 1e-6 … 1e6, and vectors come in
// groups of four that share one mean (coincident means, densities told apart
// by σ alone). Joint log densities of neighbouring leaves then differ by
// hundreds of nats.
func adversarial(rng *rand.Rand, n, dim int) []pfv.Vector {
	vs := make([]pfv.Vector, 0, n)
	var mean []float64
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			mean = make([]float64, dim)
			for d := range mean {
				mean[d] = rng.NormFloat64() * 10
			}
		}
		sigma := make([]float64, dim)
		for d := range sigma {
			sigma[d] = math.Pow(10, rng.Float64()*12-6)
		}
		vs = append(vs, pfv.MustNew(uint64(i+1), append([]float64(nil), mean...), sigma))
	}
	return vs
}

// adversarialQueries: sharp and flat re-observations of stored objects, and
// far-tail queries whose every joint density underflows float64 in linear
// space (ln p ≈ −1e9 … −1e15), so the denominator lives on the accumulators'
// reference exponents alone.
func adversarialQueries(rng *rand.Rand, vs []pfv.Vector, n int) []pfv.Vector {
	dim := vs[0].Dim()
	qs := make([]pfv.Vector, 0, n)
	for i := 0; i < n; i++ {
		src := vs[rng.Intn(len(vs))]
		mean := append([]float64(nil), src.Mean...)
		sigma := make([]float64, dim)
		for d := range sigma {
			switch i % 4 {
			case 0: // sharp
				sigma[d] = math.Pow(10, -6+rng.Float64()*2)
			case 1: // flat
				sigma[d] = math.Pow(10, 4+rng.Float64()*2)
			case 2: // mixed, like the stored vectors
				sigma[d] = math.Pow(10, rng.Float64()*12-6)
				mean[d] += rng.NormFloat64() * sigma[d]
			case 3: // far tail
				sigma[d] = math.Pow(10, -6+rng.Float64()*3)
				mean[d] += 1e4 * (1 + rng.Float64())
			}
		}
		qs = append(qs, pfv.MustNew(0, mean, sigma))
	}
	return qs
}

// TestAdversarialTIQAcrossEngines: Tree.TIQ ≡ 1-shard TIQ ≡ 4-shard TIQ on
// the adversarial generator, and all of them agree with the exact posterior.
// The admission filter of the TIQ collectors runs here against a lower
// denominator bound that moves by hundreds of nats per expansion, and the
// queue-bound accumulators lose their dominant term over and over: before
// the cancellation-triggered rebuild (bounds.go) this test failed with
// certified intervals 4e-5 away from the true posterior.
func TestAdversarialTIQAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const dim = 4
	vs := adversarial(rng, 800, dim)
	single, engines := buildEngines(t, vs, dim, 1024, 1, 4)
	all := append([]query.Engine{single}, engines[0], engines[1])
	ctx := context.Background()
	reported := 0
	for qi, q := range adversarialQueries(rng, vs, 48) {
		truth := pfv.Posterior(gaussian.CombineAdditive, vs, q)
		for _, pTheta := range []float64{0, 1e-300, 0.05, 0.5, 0.8, 1} {
			for _, accuracy := range []float64{0, 1e-6} {
				for _, e := range all {
					got, _, err := e.TIQ(ctx, q, pTheta, accuracy)
					if err != nil {
						t.Fatalf("%s query %d Pθ=%v: %v", e.Name(), qi, pTheta, err)
					}
					in := map[uint64]bool{}
					for _, g := range got {
						in[g.Vector.ID] = true
						p := truth[g.Vector.ID-1]
						if math.IsNaN(g.ProbLow) || math.IsNaN(g.ProbHigh) || g.ProbLow-1e-9 > p || p > g.ProbHigh+1e-9 {
							t.Errorf("%s query %d Pθ=%v: id %d true p=%v outside [%v,%v]", e.Name(), qi, pTheta, g.Vector.ID, p, g.ProbLow, g.ProbHigh)
						}
					}
					reported += len(got)
					for i, p := range truth {
						if math.Abs(p-pTheta) <= 1e-9 {
							continue // summation-order round-off may fall either side
						}
						if in[vs[i].ID] != (p >= pTheta) {
							t.Errorf("%s query %d Pθ=%v accuracy %v: id %d (p=%v) reported=%v", e.Name(), qi, pTheta, accuracy, vs[i].ID, p, in[vs[i].ID])
						}
					}
				}
			}
		}
	}
	if reported == 0 {
		t.Fatal("no query reported anything")
	}
}

// TestCertifiedIntervalHoldsTheTinyTail: a shard that scores a far object
// first and the query's own object after it must still certify an interval
// holding the true posterior 1/(1 + m), where m ≈ 1e-15 … 1e-13 is a tail
// object's share. Before the exact-sum accumulator rebased its reference on
// each new largest term, the dominant term was summed relative to the far
// object's density, hundreds of nats away: the sum came out ~1e-13 below the
// dominant term alone, TIQ(1) answered the query's object as [1, 1], and on
// DS2 the 4-shard engine did so where the tree answers nothing.
func TestCertifiedIntervalHoldsTheTinyTail(t *testing.T) {
	ctx := context.Background()
	q := pfv.MustNew(0, []float64{0}, []float64{0.1})
	at := func(id uint64, x float64) pfv.Vector { return pfv.MustNew(id, []float64{x}, []float64{0.1}) }
	for i := 0; i < 40; i++ {
		// σ = 0.1 + 0.1 under the additive combiner: ln p(q|far) runs from
		// about 100 to 540 nats below the query's own object, and the tail
		// object holds 1e-13 … 1e-15 of the denominator.
		far, tail := 2.9+0.095*float64(i), 1.55+0.003*float64(i)
		shard0 := []pfv.Vector{at(3, far), at(2, tail), at(1, 0)}
		shard1 := []pfv.Vector{at(4, -far)}
		single := newTree(t, 1, 1024)
		trees := []*core.Tree{newTree(t, 1, 1024), newTree(t, 1, 1024)}
		for j, group := range [][]pfv.Vector{shard0, shard1} {
			for _, v := range group {
				if err := single.Insert(v); err != nil {
					t.Fatal(err)
				}
				if err := trees[j].Insert(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		sharded, err := New(trees, HashByID())
		if err != nil {
			t.Fatal(err)
		}
		truth := pfv.Posterior(gaussian.CombineAdditive, append(shard0, shard1...), q)[2]
		for _, e := range []query.Engine{single, sharded} {
			if got, _, err := e.TIQ(ctx, q, 1, 0); err != nil || len(got) != 0 {
				t.Fatalf("%s case %d: TIQ(1) = %v, %v; the true posterior is %v", e.Name(), i, got, err, truth)
			}
			got, _, err := e.KMLIQ(ctx, q, 1, 0)
			if err != nil || len(got) != 1 || got[0].Vector.ID != 1 {
				t.Fatalf("%s case %d: 1-MLIQ = %v, %v", e.Name(), i, got, err)
			}
			if r := got[0]; r.ProbLow > truth+1e-15 || truth > r.ProbHigh+1e-15 {
				t.Errorf("%s case %d: [%v, %v] excludes the true posterior %v", e.Name(), i, r.ProbLow, r.ProbHigh, truth)
			}
		}
	}
}
