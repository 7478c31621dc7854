package pfv

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
)

func randColBatch(rng *rand.Rand, n, dim int) []Vector {
	vs := make([]Vector, n)
	for j := range vs {
		mean := make([]float64, dim)
		sigma := make([]float64, dim)
		for i := range mean {
			mean[i] = rng.NormFloat64() * 10
			sigma[i] = rng.Float64()*2 + 1e-3
		}
		vs[j] = MustNew(uint64(j+1), mean, sigma)
	}
	return vs
}

// TestScoreColumnsBitIdenticalToLogDensity pins the central contract of the
// columnar leaf format: batch scoring must be bit-identical to the scalar
// LogDensity, for both combiners, so exact-format query results cannot drift
// when a leaf is evaluated through the columnar path.
func TestScoreColumnsBitIdenticalToLogDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		for _, dim := range []int{1, 3, 8} {
			vs := randColBatch(rng, 300, dim)
			cols := ColumnsOf(vs, dim)
			out := make([]float64, cols.Len())
			for trial := 0; trial < 10; trial++ {
				q := randColBatch(rng, 1, dim)[0]
				e := NewJointEvaluator(comb, q)
				e.ScoreColumns(cols, out)
				for j, v := range vs {
					want := e.LogDensity(v)
					if math.Float64bits(out[j]) != math.Float64bits(want) {
						t.Fatalf("%v dim=%d trial=%d vector %d: ScoreColumns %x (%v) != LogDensity %x (%v)",
							comb, dim, trial, j, math.Float64bits(out[j]), out[j], math.Float64bits(want), want)
					}
				}
			}
		}
	}
}

// TestScoreColumnsLogSumFallback drives σ products outside the float64 range
// in both directions; the batch path must take the identical per-dimension
// log-sum fallback the scalar path takes. Each such vector sits at every
// position of batches of 1…9 and 48 vectors, so it reaches every lane of the
// vector bodies' blocks and their Go tail.
func TestScoreColumnsLogSumFallback(t *testing.T) {
	dim := 20
	mk := func(s float64) Vector {
		mean := make([]float64, dim)
		sigma := make([]float64, dim)
		for i := range sigma {
			mean[i] = float64(i)
			sigma[i] = s
		}
		return MustNew(1, mean, sigma)
	}
	q := mk(0.5)
	for _, probe := range []Vector{mk(1e200), mk(1e-200)} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 48} {
			for at := 0; at < n; at++ {
				vs := make([]Vector, n)
				for j := range vs {
					vs[j] = mk(1 + float64(j)/8)
				}
				vs[at] = probe
				cols := ColumnsOf(vs, dim)
				out := make([]float64, n)
				for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
					e := NewJointEvaluator(comb, q)
					e.ScoreColumns(cols, out)
					for j, v := range vs {
						want := e.LogDensity(v)
						if math.Float64bits(out[j]) != math.Float64bits(want) {
							t.Fatalf("%v vector %d of %d: ScoreColumns %v != LogDensity %v", comb, j, n, out[j], want)
						}
					}
				}
			}
		}
	}
}

// TestUpperBoundColumnsDominates checks the screening bound's one-sided
// contract: for every vector of the batch the cheap bound must be >= the
// exact joint log density, under both combiners, or ranked traversals could
// skip true top-k members.
func TestUpperBoundColumnsDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		for _, dim := range []int{1, 4, 7} {
			vs := randColBatch(rng, 250, dim)
			cols := ColumnsOf(vs, dim)
			score := make([]float64, cols.Len())
			bound := make([]float64, cols.Len())
			scratch := make([]float64, dim)
			for trial := 0; trial < 20; trial++ {
				q := randColBatch(rng, 1, dim)[0]
				e := NewJointEvaluator(comb, q)
				e.ScoreColumns(cols, score)
				e.UpperBoundColumns(cols, scratch, bound)
				for j := range vs {
					if bound[j] < score[j] {
						t.Fatalf("%v dim=%d trial=%d vector %d: bound %v < exact %v",
							comb, dim, trial, j, bound[j], score[j])
					}
				}
			}
		}
	}
}

// TestColumnsRoundTrip checks the columnar view reproduces the row-major
// batch exactly, and that NegLnSigma matches the canonical dimension-order
// product with log-sum fallback.
func TestColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	vs := randColBatch(rng, 50, 4)
	cols := ColumnsOf(vs, 4)
	back := cols.Vectors()
	if len(back) != len(vs) {
		t.Fatalf("round trip length %d, want %d", len(back), len(vs))
	}
	for j, v := range vs {
		b := back[j]
		if b.ID != v.ID {
			t.Fatalf("vector %d: id %d != %d", j, b.ID, v.ID)
		}
		for i := 0; i < 4; i++ {
			if b.Mean[i] != v.Mean[i] || b.Sigma[i] != v.Sigma[i] {
				t.Fatalf("vector %d dim %d mismatch", j, i)
			}
		}
	}
	for j := range vs {
		prod := 1.0
		for i := 0; i < 4; i++ {
			prod *= cols.Sigma[i][j]
		}
		want := -math.Log(prod)
		if got := cols.NegLnSigma()[j]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("vector %d: NegLnSigma %v, want %v", j, got, want)
		}
	}
}

// TestLogDensityAtBitIdentical: scoring vector j straight from the columns
// equals scoring its row-major copy, log-sum fallback included.
func TestLogDensityAtBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	vs := randColBatch(rng, 40, 6)
	for i := range vs[0].Sigma {
		vs[0].Sigma[i], vs[1].Sigma[i] = 1e200, 1e-200 // σ products out of range
	}
	cols := ColumnsOf(vs, 6)
	for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		e := NewJointEvaluator(comb, randColBatch(rng, 1, 6)[0])
		for j, v := range vs {
			got, want := e.LogDensityAt(cols, j), e.LogDensity(v)
			if math.Float64bits(got) != math.Float64bits(want) || !v.Equal(cols.Vector(j)) {
				t.Fatalf("%v vector %d: LogDensityAt %v, LogDensity %v", comb, j, got, want)
			}
		}
	}
}

// TestDerivedColumnsOnFirstUse: the σ extrema and the NegLnSigma terms are
// derived by their first reader, not by the builder. Eight goroutines race
// that first use on one shared batch (the shape of a cached leaf under
// concurrent ranked queries; run with -race) and every one must read what an
// eager pass over the columns computes, bit for bit — at a dimension whose
// column headers share the batch's allocation and at one where they do not,
// for an empty batch too.
func TestDerivedColumnsOnFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, dim := range []int{1, inlineHeads / 2, inlineHeads/2 + 1, 27} {
		for _, n := range []int{0, 1, 48} {
			vs := randColBatch(rng, n, dim)
			if n > 1 {
				for i := range vs[0].Sigma {
					vs[0].Sigma[i], vs[1].Sigma[i] = 1e200, 1e-200 // σ products out of range
				}
			}
			cols := ColumnsOf(vs, dim)
			wantLo, wantHi, wantNegLn := make([]float64, dim), make([]float64, dim), make([]float64, n)
			for i := 0; i < dim; i++ {
				wantLo[i], wantHi[i] = math.Inf(1), math.Inf(-1)
				for _, v := range vs {
					wantLo[i], wantHi[i] = math.Min(wantLo[i], v.Sigma[i]), math.Max(wantHi[i], v.Sigma[i])
				}
			}
			for j, v := range vs {
				prod, sum := 1.0, 0.0
				for _, s := range v.Sigma {
					prod *= s
					sum += math.Log(s)
				}
				if wantNegLn[j] = -math.Log(prod); math.IsInf(wantNegLn[j], 0) {
					wantNegLn[j] = -sum
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(rangeFirst bool) {
					defer wg.Done()
					var lo, hi, negLn []float64
					if rangeFirst {
						lo, hi = cols.SigmaRange()
						negLn = cols.NegLnSigma()
					} else {
						negLn = cols.NegLnSigma()
						lo, hi = cols.SigmaRange()
					}
					for name, pair := range map[string][2][]float64{"σ minima": {lo, wantLo}, "σ maxima": {hi, wantHi}, "NegLnSigma": {negLn, wantNegLn}} {
						if len(pair[0]) != len(pair[1]) {
							t.Errorf("dim=%d n=%d %s: %d values, want %d", dim, n, name, len(pair[0]), len(pair[1]))
							continue
						}
						for k, want := range pair[1] {
							if math.Float64bits(pair[0][k]) != math.Float64bits(want) {
								t.Errorf("dim=%d n=%d %s[%d]: %v, want %v", dim, n, name, k, pair[0][k], want)
							}
						}
					}
				}(g%2 == 0)
			}
			wg.Wait()
			// Deriving wrote only the derived slots.
			for j, v := range cols.Vectors() {
				if !v.Equal(vs[j]) {
					t.Fatalf("dim=%d n=%d: vector %d changed by derivation", dim, n, j)
				}
			}
		}
	}
}
