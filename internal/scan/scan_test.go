package scan

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

func newFile(t *testing.T, dim int) (*File, *pagefile.Manager) {
	t.Helper()
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(1024), 1024)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Create(mgr, dim, gaussian.CombineAdditive)
	if err != nil {
		t.Fatal(err)
	}
	return f, mgr
}

func randomVectors(rng *rand.Rand, n, dim int) []pfv.Vector {
	out := make([]pfv.Vector, n)
	for i := range out {
		mean := make([]float64, dim)
		sigma := make([]float64, dim)
		for j := range mean {
			mean[j] = rng.Float64() * 10
			sigma[j] = rng.Float64()*0.5 + 0.05
		}
		out[i] = pfv.MustNew(uint64(i+1), mean, sigma)
	}
	return out
}

func TestCreateValidation(t *testing.T) {
	mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(64), 64)
	if _, err := Create(mgr, 0, gaussian.CombineAdditive); err == nil {
		t.Error("dim 0 should fail")
	}
	// 64-byte pages cannot hold a 27-dim vector (440 bytes).
	if _, err := Create(mgr, 27, gaussian.CombineAdditive); err == nil {
		t.Error("oversized entries should fail")
	}
}

func TestAppendAndForEachOrder(t *testing.T) {
	f, _ := newFile(t, 3)
	rng := rand.New(rand.NewSource(1))
	vs := randomVectors(rng, 57, 3) // >1 page with 1024-byte pages (56B entries)
	if err := f.AppendAll(vs); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 57 {
		t.Errorf("Len = %d", f.Len())
	}
	var got []pfv.Vector
	if err := f.ForEach(func(v pfv.Vector) error {
		got = append(got, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vs) {
		t.Fatalf("scanned %d of %d", len(got), len(vs))
	}
	for i := range vs {
		if !vs[i].Equal(got[i]) {
			t.Fatalf("vector %d mismatch", i)
		}
	}
	if len(f.Pages()) < 2 {
		t.Errorf("expected multiple pages, got %d", len(f.Pages()))
	}
}

func TestAppendDimensionMismatch(t *testing.T) {
	f, _ := newFile(t, 2)
	if err := f.Append(pfv.MustNew(1, []float64{1}, []float64{1})); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	f, _ := newFile(t, 2)
	rng := rand.New(rand.NewSource(2))
	f.AppendAll(randomVectors(rng, 30, 2))
	sentinel := errors.New("stop")
	n := 0
	err := f.ForEach(func(pfv.Vector) error {
		n++
		if n == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
	if n != 5 {
		t.Errorf("visited %d", n)
	}
}

func TestKMLIQFindsGroundTruth(t *testing.T) {
	f, _ := newFile(t, 4)
	rng := rand.New(rand.NewSource(4))
	vs := randomVectors(rng, 200, 4)
	f.AppendAll(vs)

	// The query is a re-observation of object 42.
	src := vs[41]
	mean := make([]float64, 4)
	sigma := make([]float64, 4)
	for i := range mean {
		sigma[i] = 0.1
		mean[i] = src.Mean[i] + rng.NormFloat64()*0.02
	}
	q := pfv.MustNew(0, mean, sigma)
	res, _, err := f.KMLIQ(context.Background(), q, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Vector.ID != 42 {
		t.Errorf("top hit = %d, want 42", res[0].Vector.ID)
	}
	// Ordered by probability, probabilities in [0,1], exact intervals.
	sum := 0.0
	for i, r := range res {
		if r.Probability < 0 || r.Probability > 1 {
			t.Errorf("probability out of range: %v", r.Probability)
		}
		if r.ProbLow != r.Probability || r.ProbHigh != r.Probability {
			t.Errorf("scan probabilities must be exact")
		}
		if i > 0 && res[i-1].Probability < r.Probability {
			t.Error("results not sorted by probability")
		}
		sum += r.Probability
	}
	if sum > 1+1e-9 {
		t.Errorf("probabilities sum to %v > 1 (paper §4 property 1)", sum)
	}
}

func TestKMLIQAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := randomVectors(rng, 150, 3)
	q := pfv.MustNew(0, []float64{5, 5, 5}, []float64{0.3, 0.3, 0.3})

	for _, c := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		mgr, err := pagefile.NewManager(pagefile.NewMemBackend(1024), 1024)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Create(mgr, 3, c)
		if err != nil {
			t.Fatal(err)
		}
		f.AppendAll(vs)
		// Brute force posterior.
		ps := pfv.Posterior(c, vs, q)
		bestIdx := make([]int, len(vs))
		for i := range bestIdx {
			bestIdx[i] = i
		}
		// Select top 5 by posterior.
		for i := 0; i < 5; i++ {
			for j := i + 1; j < len(bestIdx); j++ {
				if ps[bestIdx[j]] > ps[bestIdx[i]] {
					bestIdx[i], bestIdx[j] = bestIdx[j], bestIdx[i]
				}
			}
		}
		res, _, err := f.KMLIQ(context.Background(), q, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			want := vs[bestIdx[i]]
			if res[i].Vector.ID != want.ID {
				t.Errorf("%v: rank %d = %d, want %d", c, i, res[i].Vector.ID, want.ID)
			}
			if math.Abs(res[i].Probability-ps[bestIdx[i]]) > 1e-9 {
				t.Errorf("%v: rank %d probability %v, want %v", c, i, res[i].Probability, ps[bestIdx[i]])
			}
		}
	}
}

func TestKMLIQLargerKThanDB(t *testing.T) {
	f, _ := newFile(t, 2)
	rng := rand.New(rand.NewSource(6))
	f.AppendAll(randomVectors(rng, 4, 2))
	q := pfv.MustNew(0, []float64{1, 1}, []float64{1, 1})
	res, _, err := f.KMLIQ(context.Background(), q, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Errorf("got %d results, want all 4", len(res))
	}
	sum := 0.0
	for _, r := range res {
		sum += r.Probability
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("full-database posteriors must sum to 1, got %v", sum)
	}
}

func TestKMLIQInvalidArgs(t *testing.T) {
	f, _ := newFile(t, 2)
	q := pfv.MustNew(0, []float64{1, 1}, []float64{1, 1})
	if _, _, err := f.KMLIQ(context.Background(), q, 0, 0); err == nil {
		t.Error("k=0 should fail")
	}
	bad := pfv.MustNew(0, []float64{1}, []float64{1})
	if _, _, err := f.KMLIQ(context.Background(), bad, 1, 0); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestTIQMatchesPosterior(t *testing.T) {
	f, _ := newFile(t, 3)
	rng := rand.New(rand.NewSource(7))
	vs := randomVectors(rng, 120, 3)
	f.AppendAll(vs)
	q := vs[10].Clone()
	q.ID = 0

	ps := pfv.Posterior(gaussian.CombineAdditive, vs, q)
	for _, pTheta := range []float64{0.01, 0.2, 0.8} {
		want := map[uint64]float64{}
		for i, p := range ps {
			if p >= pTheta {
				want[vs[i].ID] = p
			}
		}
		res, _, err := f.TIQ(context.Background(), q, pTheta, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(want) {
			t.Fatalf("Pθ=%v: got %d results, want %d", pTheta, len(res), len(want))
		}
		for _, r := range res {
			wp, ok := want[r.Vector.ID]
			if !ok {
				t.Errorf("Pθ=%v: unexpected result %d", pTheta, r.Vector.ID)
				continue
			}
			if math.Abs(r.Probability-wp) > 1e-9 {
				t.Errorf("Pθ=%v: object %d probability %v, want %v", pTheta, r.Vector.ID, r.Probability, wp)
			}
		}
	}
}

func TestTIQThresholdValidation(t *testing.T) {
	f, _ := newFile(t, 2)
	q := pfv.MustNew(0, []float64{1, 1}, []float64{1, 1})
	for _, bad := range []float64{-0.1, 1.1} {
		if _, _, err := f.TIQ(context.Background(), q, bad, 0); err == nil {
			t.Errorf("threshold %v should fail", bad)
		}
	}
}

func TestTIQEmptyFile(t *testing.T) {
	f, _ := newFile(t, 2)
	q := pfv.MustNew(0, []float64{1, 1}, []float64{1, 1})
	res, _, err := f.TIQ(context.Background(), q, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty file should yield no results")
	}
}

func TestNearestNeighbors(t *testing.T) {
	f, _ := newFile(t, 2)
	vs := []pfv.Vector{
		pfv.MustNew(1, []float64{0, 0}, []float64{5, 5}), // huge sigma: must be ignored
		pfv.MustNew(2, []float64{1, 0}, []float64{0.1, 0.1}),
		pfv.MustNew(3, []float64{3, 4}, []float64{0.1, 0.1}),
	}
	f.AppendAll(vs)
	q := pfv.MustNew(0, []float64{0.1, 0}, []float64{1, 1})
	res, err := f.NearestNeighbors(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Vector.ID != 1 || res[1].Vector.ID != 2 {
		t.Errorf("NN order = %v", res)
	}
	if _, err := f.NearestNeighbors(q, 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestScanPageAccessCounts(t *testing.T) {
	f, mgr := newFile(t, 3)
	rng := rand.New(rand.NewSource(8))
	f.AppendAll(randomVectors(rng, 500, 3))
	q := pfv.MustNew(0, []float64{5, 5, 5}, []float64{0.5, 0.5, 0.5})
	nPages := uint64(len(f.Pages()))

	mgr.ResetStats()
	mgr.DropCache()
	if _, _, err := f.KMLIQ(context.Background(), q, 1, 0); err != nil {
		t.Fatal(err)
	}
	s := mgr.Stats()
	if s.LogicalReads != nPages {
		t.Errorf("k-MLIQ logical reads = %d, want %d (one scan)", s.LogicalReads, nPages)
	}
	if s.Seeks != 1 {
		t.Errorf("sequential k-MLIQ seeks = %d, want 1", s.Seeks)
	}

	mgr.ResetStats()
	mgr.DropCache()
	if _, _, err := f.TIQ(context.Background(), q, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	s = mgr.Stats()
	if s.LogicalReads != 2*nPages {
		t.Errorf("TIQ logical reads = %d, want %d (two scans)", s.LogicalReads, 2*nPages)
	}
}
