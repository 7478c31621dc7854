package vafile

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/scan"
)

func buildWorld(t *testing.T, n, dim int, seed int64) (*File, *scan.File, []pfv.Vector, *pagefile.Manager) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 5)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for j := range centers[i] {
			centers[i][j] = rng.Float64() * 50
		}
	}
	vs := make([]pfv.Vector, n)
	for i := range vs {
		c := centers[rng.Intn(len(centers))]
		mean := make([]float64, dim)
		sigma := make([]float64, dim)
		base := rng.Float64() + 0.05
		for j := range mean {
			sigma[j] = base * (0.7 + 0.6*rng.Float64())
			mean[j] = c[j] + rng.NormFloat64()*2
		}
		vs[i] = pfv.MustNew(uint64(i+1), mean, sigma)
	}
	va, data, mgr := buildOver(t, vs, gaussian.CombineAdditive, 2048)
	return va, data, vs, mgr
}

func TestBuildShape(t *testing.T) {
	va, data, _, _ := buildWorld(t, 500, 4, 1)
	if va.Len() != 500 {
		t.Errorf("Len = %d", va.Len())
	}
	// The approximation file must be much smaller than the data file.
	if len(va.pages) >= len(data.Pages())/2 {
		t.Errorf("approx pages %d vs data pages %d: approximation not compact",
			len(va.pages), len(data.Pages()))
	}
}

func TestEmptyFile(t *testing.T) {
	mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(1024), 1024)
	data, _ := scan.Create(mgr, 2, gaussian.CombineAdditive)
	va, err := Build(mgr, data, gaussian.CombineAdditive)
	if err != nil {
		t.Fatal(err)
	}
	q := pfv.MustNew(0, []float64{1, 1}, []float64{1, 1})
	if res, _, err := va.KMLIQ(context.Background(), q, 3, 0); err != nil || len(res) != 0 {
		t.Errorf("empty KMLIQ: %v %v", res, err)
	}
	if res, _, err := va.TIQ(context.Background(), q, 0.5, 0); err != nil || len(res) != 0 {
		t.Errorf("empty TIQ: %v %v", res, err)
	}
}

func TestKMLIQEqualsScan(t *testing.T) {
	va, data, vs, _ := buildWorld(t, 600, 3, 2)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		src := vs[rng.Intn(len(vs))]
		mean := make([]float64, 3)
		sigma := make([]float64, 3)
		for j := range mean {
			sigma[j] = rng.Float64()*0.5 + 0.05
			mean[j] = src.Mean[j] + rng.NormFloat64()*sigma[j]
		}
		q := pfv.MustNew(0, mean, sigma)
		k := rng.Intn(5) + 1

		want, _, err := data.KMLIQ(context.Background(), q, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := va.KMLIQ(context.Background(), q, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Vector.ID != want[i].Vector.ID {
				t.Errorf("trial %d rank %d: va %d vs scan %d", trial, i, got[i].Vector.ID, want[i].Vector.ID)
			}
			truth := want[i].Probability
			if got[i].ProbLow-1e-9 > truth || truth > got[i].ProbHigh+1e-9 {
				t.Errorf("trial %d rank %d: truth %v outside [%v,%v]",
					trial, i, truth, got[i].ProbLow, got[i].ProbHigh)
			}
		}
	}
}

func TestTIQNoFalseDismissals(t *testing.T) {
	va, data, vs, _ := buildWorld(t, 400, 2, 4)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		src := vs[rng.Intn(len(vs))]
		q := pfv.MustNew(0, src.Mean, src.Sigma)
		for _, pTheta := range []float64{0.2, 0.8} {
			want, _, err := data.TIQ(context.Background(), q, pTheta, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := va.TIQ(context.Background(), q, pTheta, 0)
			if err != nil {
				t.Fatal(err)
			}
			gotIDs := map[uint64]bool{}
			for _, r := range got {
				gotIDs[r.Vector.ID] = true
			}
			for _, w := range want {
				if !gotIDs[w.Vector.ID] {
					t.Errorf("trial %d Pθ=%v: missing qualifying object %d (p=%v)",
						trial, pTheta, w.Vector.ID, w.Probability)
				}
			}
		}
	}
}

func TestKMLIQPrunesPages(t *testing.T) {
	va, data, vs, mgr := buildWorld(t, 2000, 4, 6)
	rng := rand.New(rand.NewSource(7))
	var vaPages, scanPages uint64
	for trial := 0; trial < 10; trial++ {
		src := vs[rng.Intn(len(vs))]
		mean := make([]float64, 4)
		sigma := make([]float64, 4)
		for j := range mean {
			sigma[j] = 0.1
			mean[j] = src.Mean[j] + rng.NormFloat64()*0.05
		}
		q := pfv.MustNew(0, mean, sigma)

		mgr.ResetStats()
		mgr.DropCache()
		if _, _, err := va.KMLIQ(context.Background(), q, 1, 0); err != nil {
			t.Fatal(err)
		}
		vaPages += mgr.Stats().LogicalReads

		mgr.ResetStats()
		mgr.DropCache()
		if _, _, err := data.KMLIQ(context.Background(), q, 1, 0); err != nil {
			t.Fatal(err)
		}
		scanPages += mgr.Stats().LogicalReads
	}
	if vaPages >= scanPages {
		t.Errorf("VA-file should touch fewer pages: %d vs %d", vaPages, scanPages)
	}
}

func TestQueryValidation(t *testing.T) {
	va, _, _, _ := buildWorld(t, 50, 2, 8)
	bad := pfv.MustNew(0, []float64{1}, []float64{1})
	good := pfv.MustNew(0, []float64{1, 1}, []float64{1, 1})
	if _, _, err := va.KMLIQ(context.Background(), bad, 1, 0); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, _, err := va.KMLIQ(context.Background(), good, 0, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, err := va.TIQ(context.Background(), bad, 0.5, 0); err == nil {
		t.Error("TIQ dimension mismatch should fail")
	}
	if _, _, err := va.TIQ(context.Background(), good, 1.5, 0); err == nil {
		t.Error("bad threshold should fail")
	}
}

func TestCellOfAndGrid(t *testing.T) {
	vals := make([]float64, 1000)
	rng := rand.New(rand.NewSource(9))
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	grid := equiDepthGrid(vals)
	if len(grid) != cells+1 {
		t.Fatalf("grid size %d", len(grid))
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] < grid[i-1] {
			t.Fatal("grid not monotone")
		}
	}
	// Every value must land in a cell whose interval contains it.
	for _, v := range vals {
		c := int(cellOf(grid, v))
		if v < grid[c]-1e-12 || v > grid[c+1]+1e-12 {
			t.Fatalf("value %v assigned to cell [%v,%v]", v, grid[c], grid[c+1])
		}
	}
	// Out-of-range probes clamp to the boundary cells.
	if cellOf(grid, math.Inf(-1)) != 0 {
		t.Error("low clamp failed")
	}
	if cellOf(grid, math.Inf(1)) != cells-1 {
		t.Error("high clamp failed")
	}
}
