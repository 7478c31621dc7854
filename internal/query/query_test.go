package query

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

func mk(id uint64, p, ld float64) Result {
	return Result{
		Vector:      pfv.MustNew(id, []float64{0}, []float64{1}),
		Probability: p,
		LogDensity:  ld,
	}
}

func TestSortByProbability(t *testing.T) {
	rs := []Result{mk(3, 0.2, -1), mk(1, 0.7, -2), mk(2, 0.1, -3)}
	SortByProbability(rs)
	want := []uint64{1, 3, 2}
	for i, w := range want {
		if rs[i].Vector.ID != w {
			t.Fatalf("rank %d = %d, want %d", i, rs[i].Vector.ID, w)
		}
	}
}

func TestSortTieBreaks(t *testing.T) {
	// Equal probability: higher log density first; equal both: lower id.
	rs := []Result{mk(5, 0.5, -3), mk(4, 0.5, -1), mk(2, 0.5, -3)}
	SortByProbability(rs)
	want := []uint64{4, 2, 5}
	for i, w := range want {
		if rs[i].Vector.ID != w {
			t.Fatalf("rank %d = %d, want %d (%v)", i, rs[i].Vector.ID, w, IDs(rs))
		}
	}
}

func TestIDsAndContains(t *testing.T) {
	rs := []Result{mk(7, 1, 0), mk(9, 0.5, 0)}
	ids := IDs(rs)
	if len(ids) != 2 || ids[0] != 7 || ids[1] != 9 {
		t.Errorf("IDs = %v", ids)
	}
	if !ContainsID(rs, 9) || ContainsID(rs, 8) {
		t.Error("ContainsID wrong")
	}
	if len(IDs(nil)) != 0 {
		t.Error("IDs(nil) should be empty")
	}
	if ContainsID(nil, 1) {
		t.Error("ContainsID(nil) should be false")
	}
}

// TestSortsKeepTheSliceStableOrder: the reflection-free sort puts every
// input — ties on probability, on density, on both, full duplicates and NaN
// probabilities included — in the order sort.SliceStable put it under the
// less function the order is defined by.
func TestSortsKeepTheSliceStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []float64{0, 0.25, 0.25, 0.5, 1, math.NaN(), math.Inf(-1)}
	for trial := 0; trial < 500; trial++ {
		rs := make([]Result, rng.Intn(12))
		for i := range rs {
			rs[i] = mk(uint64(rng.Intn(4)), vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals)-2)])
			rs[i].ProbLow = float64(i) // tells duplicates apart
		}
		byProb := slices.Clone(rs)
		sort.SliceStable(byProb, func(i, j int) bool {
			if byProb[i].Probability != byProb[j].Probability {
				return byProb[i].Probability > byProb[j].Probability
			}
			if byProb[i].LogDensity != byProb[j].LogDensity {
				return byProb[i].LogDensity > byProb[j].LogDensity
			}
			return byProb[i].Vector.ID < byProb[j].Vector.ID
		})
		gotProb := slices.Clone(rs)
		SortByProbability(gotProb)
		for i := range rs {
			if gotProb[i].ProbLow != byProb[i].ProbLow {
				t.Fatalf("trial %d: SortByProbability rank %d is input %v, sort.SliceStable put %v there", trial, i, gotProb[i].ProbLow, byProb[i].ProbLow)
			}
		}
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-0.5) != 0 || clamp01(1.5) != 1 || clamp01(0.25) != 0.25 {
		t.Error("clamp01 wrong")
	}
	if clamp01(math.NaN()) != 1 {
		t.Error("NaN must clamp to the conservative upper bound 1")
	}
}
