package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/scan"
)

// buildPair creates a Gauss-tree and a sequential file over the same data on
// independent managers, so query results can be compared engine-to-engine.
func buildPair(t *testing.T, vs []pfv.Vector, dim, pageSize int, cfg Config) (*Tree, *scan.File) {
	t.Helper()
	mgrT, _ := pagefile.NewManager(pagefile.NewMemBackend(pageSize), pageSize)
	tr, err := New(mgrT, dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	mgrS, _ := pagefile.NewManager(pagefile.NewMemBackend(pageSize), pageSize)
	sf, err := scan.Create(mgrS, dim, cfg.Combiner)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.AppendAll(vs); err != nil {
		t.Fatal(err)
	}
	return tr, sf
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

func TestKMLIQRankedEqualsScanOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vs := clusteredVectors(rng, 600, 3, 6)
	for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		tr, sf := buildPair(t, vs, 3, 1024, Config{Combiner: comb})
		for trial := 0; trial < 25; trial++ {
			q := reobserved(rng, vs[rng.Intn(len(vs))])
			k := rng.Intn(8) + 1
			want, _, err := sf.KMLIQ(context.Background(), q, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := tr.KMLIQRanked(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i].Vector.ID != want[i].Vector.ID {
					t.Errorf("%v trial %d rank %d: tree %d vs scan %d",
						comb, trial, i, got[i].Vector.ID, want[i].Vector.ID)
				}
			}
		}
	}
}

func TestKMLIQProbabilitiesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	vs := clusteredVectors(rng, 500, 3, 5)
	tr, sf := buildPair(t, vs, 3, 1024, Config{})
	const accuracy = 1e-6
	for trial := 0; trial < 20; trial++ {
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		k := rng.Intn(5) + 1
		want, _, err := sf.KMLIQ(context.Background(), q, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tr.KMLIQ(context.Background(), q, k, accuracy)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Vector.ID != want[i].Vector.ID {
				t.Errorf("trial %d rank %d: tree %d vs scan %d", trial, i, got[i].Vector.ID, want[i].Vector.ID)
				continue
			}
			truth := want[i].Probability
			if got[i].ProbLow-1e-12 > truth || truth > got[i].ProbHigh+1e-12 {
				t.Errorf("trial %d rank %d: true p=%v outside certified [%v,%v]",
					trial, i, truth, got[i].ProbLow, got[i].ProbHigh)
			}
			if got[i].ProbHigh-got[i].ProbLow > accuracy+1e-12 {
				t.Errorf("trial %d rank %d: interval width %v exceeds accuracy",
					trial, i, got[i].ProbHigh-got[i].ProbLow)
			}
			if math.Abs(got[i].Probability-truth) > accuracy {
				t.Errorf("trial %d rank %d: p=%v, want %v", trial, i, got[i].Probability, truth)
			}
		}
	}
}

func TestTIQEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vs := clusteredVectors(rng, 500, 3, 5)
	tr, sf := buildPair(t, vs, 3, 1024, Config{})
	for trial := 0; trial < 20; trial++ {
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		for _, pTheta := range []float64{0.2, 0.8} {
			want, _, err := sf.TIQ(context.Background(), q, pTheta, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := tr.TIQ(context.Background(), q, pTheta, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs := map[uint64]float64{}
			for _, r := range want {
				wantIDs[r.Vector.ID] = r.Probability
			}
			gotIDs := map[uint64]bool{}
			for _, r := range got {
				gotIDs[r.Vector.ID] = true
				truth, ok := wantIDs[r.Vector.ID]
				if !ok {
					// A certified-above-threshold answer must really qualify.
					t.Errorf("trial %d Pθ=%v: spurious answer %d (certified [%v,%v])",
						trial, pTheta, r.Vector.ID, r.ProbLow, r.ProbHigh)
					continue
				}
				if r.ProbLow-1e-12 > truth || truth > r.ProbHigh+1e-12 {
					t.Errorf("trial %d Pθ=%v: object %d true p=%v outside [%v,%v]",
						trial, pTheta, r.Vector.ID, truth, r.ProbLow, r.ProbHigh)
				}
			}
			for id := range wantIDs {
				if !gotIDs[id] {
					t.Errorf("trial %d Pθ=%v: missing answer %d (p=%v)", trial, pTheta, id, wantIDs[id])
				}
			}
		}
	}
}

// TestTIQAccuracyCertifiesEveryResult is the regression test for the stop
// condition that certified only the highest-density candidate: every reported
// TIQ result — not just the top one — must carry a probability interval no
// wider than the requested accuracy, with the true probability inside it.
func TestTIQAccuracyCertifiesEveryResult(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vs := clusteredVectors(rng, 800, 3, 4)
	tr, sf := buildPair(t, vs, 3, 1024, Config{})
	const accuracy = 0.01
	for trial := 0; trial < 25; trial++ {
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		for _, pTheta := range []float64{0.05, 0.2, 0.5} {
			want, _, err := sf.TIQ(context.Background(), q, pTheta, 0)
			if err != nil {
				t.Fatal(err)
			}
			truth := map[uint64]float64{}
			for _, r := range want {
				truth[r.Vector.ID] = r.Probability
			}
			got, _, err := tr.TIQ(context.Background(), q, pTheta, accuracy)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range got {
				if width := r.ProbHigh - r.ProbLow; width > accuracy+1e-12 {
					t.Errorf("trial %d Pθ=%v: result %d (id %d) interval width %v exceeds accuracy %v",
						trial, pTheta, i, r.Vector.ID, width, accuracy)
				}
				if p, ok := truth[r.Vector.ID]; ok && (r.ProbLow-1e-12 > p || p > r.ProbHigh+1e-12) {
					t.Errorf("trial %d Pθ=%v: object %d true p=%v outside [%v,%v]",
						trial, pTheta, r.Vector.ID, p, r.ProbLow, r.ProbHigh)
				}
			}
		}
	}
}

func TestTIQBorderlineThresholds(t *testing.T) {
	// Small databases where candidate probabilities sit near the threshold
	// force the refinement loop to drain bounds until decisions are certain.
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(60) + 5
		vs := clusteredVectors(rng, n, 2, 2)
		tr, sf := buildPair(t, vs, 2, 512, Config{})
		q := reobserved(rng, vs[rng.Intn(len(vs))])

		// Use an exact posterior value as threshold: maximal adversarialness.
		ps := pfv.Posterior(gaussian.CombineAdditive, vs, q)
		pTheta := ps[rng.Intn(len(ps))]
		if pTheta > 1 || pTheta <= 0 || math.IsNaN(pTheta) {
			continue
		}
		want, _, err := sf.TIQ(context.Background(), q, pTheta, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tr.TIQ(context.Background(), q, pTheta, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Allow the threshold-equal element to differ only by float round-off:
		// compare id sets after removing results within 1e-12 of the threshold.
		wantSet := map[uint64]bool{}
		for _, r := range want {
			if math.Abs(r.Probability-pTheta) > 1e-9 {
				wantSet[r.Vector.ID] = true
			}
		}
		gotSet := map[uint64]bool{}
		for _, r := range got {
			gotSet[r.Vector.ID] = true
		}
		for id := range wantSet {
			if !gotSet[id] {
				t.Errorf("trial %d: missing strictly-qualifying answer %d", trial, id)
			}
		}
	}
}

func TestKMLIQAccuracyZeroStillRanksCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	vs := clusteredVectors(rng, 300, 2, 4)
	tr, sf := buildPair(t, vs, 2, 512, Config{})
	q := reobserved(rng, vs[3])
	want, _, err := sf.KMLIQ(context.Background(), q, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tr.KMLIQ(context.Background(), q, 4, 0) // no accuracy demand: intervals may be loose
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Vector.ID != want[i].Vector.ID {
			t.Errorf("rank %d: %d vs %d", i, got[i].Vector.ID, want[i].Vector.ID)
		}
		truth := want[i].Probability
		if got[i].ProbLow-1e-12 > truth || truth > got[i].ProbHigh+1e-12 {
			t.Errorf("rank %d: truth %v outside [%v,%v]", i, truth, got[i].ProbLow, got[i].ProbHigh)
		}
	}
}

func TestQueryEquivalenceProperty(t *testing.T) {
	// Randomized end-to-end exactness: for random small trees and random
	// probabilistic queries, tree answers equal scan answers.
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		dim := rng.Intn(4) + 1
		n := rng.Intn(300) + 10
		vs := clusteredVectors(rng, n, dim, rng.Intn(4)+1)
		comb := gaussian.CombineAdditive
		if rng.Intn(2) == 1 {
			comb = gaussian.CombineConvolution
		}
		tr, sf := buildPair(t, vs, dim, 1024, Config{Combiner: comb})
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		k := rng.Intn(6) + 1

		want, _, err := sf.KMLIQ(context.Background(), q, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tr.KMLIQ(context.Background(), q, k, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Vector.ID != want[i].Vector.ID {
				t.Fatalf("trial %d (dim=%d n=%d comb=%v): rank %d tree=%d scan=%d",
					trial, dim, n, comb, i, got[i].Vector.ID, want[i].Vector.ID)
			}
			if math.Abs(got[i].Probability-want[i].Probability) > 1e-6 {
				t.Fatalf("trial %d rank %d: p %v vs %v", trial, i, got[i].Probability, want[i].Probability)
			}
		}
	}
}

func TestTreeTouchesFewerPagesThanScanOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	vs := clusteredVectors(rng, 3000, 4, 12)
	mgrT, _ := pagefile.NewManager(pagefile.NewMemBackend(2048), 2048)
	tr, err := New(mgrT, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	mgrS, _ := pagefile.NewManager(pagefile.NewMemBackend(2048), 2048)
	sf, _ := scan.Create(mgrS, 4, gaussian.CombineAdditive)
	sf.AppendAll(vs)

	var treePages, scanPages uint64
	for trial := 0; trial < 20; trial++ {
		src := vs[rng.Intn(len(vs))]
		mean := make([]float64, 4)
		sigma := make([]float64, 4)
		for i := range mean {
			sigma[i] = 0.1
			mean[i] = src.Mean[i] + rng.NormFloat64()*0.05
		}
		q := pfv.MustNew(0, mean, sigma)

		mgrT.ResetStats()
		mgrT.DropCache()
		if _, _, err := tr.KMLIQRanked(context.Background(), q, 1); err != nil {
			t.Fatal(err)
		}
		treePages += mgrT.Stats().LogicalReads

		mgrS.ResetStats()
		mgrS.DropCache()
		if _, _, err := sf.KMLIQ(context.Background(), q, 1, 0); err != nil {
			t.Fatal(err)
		}
		scanPages += mgrS.Stats().LogicalReads
	}
	if treePages*2 >= scanPages {
		t.Errorf("Gauss-tree should save at least 2x page accesses on clustered data: tree %d vs scan %d",
			treePages, scanPages)
	}
}

func TestQueryValidation(t *testing.T) {
	tr := newTree(t, 2, 512, Config{})
	good := pfv.MustNew(0, []float64{1, 1}, []float64{1, 1})
	bad := pfv.MustNew(0, []float64{1}, []float64{1})
	if _, _, err := tr.KMLIQ(context.Background(), bad, 1, 0); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, _, err := tr.KMLIQ(context.Background(), good, 0, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, err := tr.KMLIQRanked(context.Background(), good, -1); err == nil {
		t.Error("negative k should fail")
	}
	if _, _, err := tr.TIQ(context.Background(), good, -0.1, 0); err == nil {
		t.Error("negative threshold should fail")
	}
	if _, _, err := tr.TIQ(context.Background(), good, 1.5, 0); err == nil {
		t.Error("threshold > 1 should fail")
	}
	if _, _, err := tr.TIQ(context.Background(), bad, 0.5, 0); err == nil {
		t.Error("TIQ dimension mismatch should fail")
	}
}

func TestResultsSortedAndWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	vs := clusteredVectors(rng, 200, 2, 3)
	tr, _ := buildPair(t, vs, 2, 512, Config{})
	q := reobserved(rng, vs[0])
	res, _, err := tr.KMLIQ(context.Background(), q, 5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, r := range res {
		if i > 0 && res[i-1].Probability < r.Probability {
			t.Error("results not sorted by probability")
		}
		if r.ProbLow > r.ProbHigh || r.ProbLow < 0 || r.ProbHigh > 1 {
			t.Errorf("malformed interval [%v,%v]", r.ProbLow, r.ProbHigh)
		}
		sum += r.Probability
	}
	if sum > 1+1e-6 {
		t.Errorf("probability sum %v exceeds 1 (paper §4 property 1)", sum)
	}
	_ = query.IDs(res)
}

// TestTIQBoundaryThresholds sets the threshold to a candidate's reported
// ProbLow, ProbHigh and midpoint, and to the floating-point neighbours of
// each: the log-space threshold tests must decide these exactly as the scan
// engine's exp-space comparison does — the cases thresholdBand's fallback to
// the exact form exists for. Only an object whose scan posterior sits within
// summation round-off of the threshold may differ (the two engines add the
// denominator in different orders).
func TestTIQBoundaryThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	vs := clusteredVectors(rng, 600, 3, 5)
	tr, sf := buildPair(t, vs, 3, 1024, Config{})
	ctx := context.Background()
	thresholds := 0
	for trial := 0; trial < 12; trial++ {
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		first, _, err := tr.TIQ(ctx, q, 0.01, 0.05) // loose accuracy: intervals with real width
		if err != nil {
			t.Fatal(err)
		}
		if len(first) > 4 {
			first = first[:4]
		}
		want, _, err := sf.TIQ(ctx, q, 0, 0) // every posterior, to tell round-off ties apart
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range first {
			for _, base := range []float64{r.ProbLow, r.ProbHigh, (r.ProbLow + r.ProbHigh) / 2} {
				for _, pTheta := range []float64{base, math.Nextafter(base, 0), math.Nextafter(base, 1)} {
					if pTheta <= 0 || pTheta > 1 {
						continue
					}
					thresholds++
					for _, accuracy := range []float64{0, 1e-6} {
						got, _, err := tr.TIQ(ctx, q, pTheta, accuracy)
						if err != nil {
							t.Fatal(err)
						}
						in := map[uint64]query.Result{}
						for _, g := range got {
							in[g.Vector.ID] = g
							if g.ProbHigh < pTheta {
								t.Errorf("trial %d Pθ=%v: id %d reported with upper bound %v", trial, pTheta, g.Vector.ID, g.ProbHigh)
							}
						}
						for _, w := range want {
							p := w.Probability
							if g, ok := in[w.Vector.ID]; ok && (g.ProbLow-1e-12 > p || p > g.ProbHigh+1e-12) {
								t.Errorf("trial %d Pθ=%v: id %d true p=%v outside [%v,%v]", trial, pTheta, w.Vector.ID, p, g.ProbLow, g.ProbHigh)
							}
							if math.Abs(p-pTheta) <= 1e-12 {
								continue
							}
							if _, ok := in[w.Vector.ID]; ok != (p >= pTheta) {
								t.Errorf("trial %d Pθ=%v accuracy %v: id %d (p=%v) reported=%v", trial, pTheta, accuracy, w.Vector.ID, p, ok)
							}
						}
					}
				}
			}
		}
	}
	if thresholds < 100 {
		t.Fatalf("only %d boundary thresholds exercised", thresholds)
	}
}
