package vafile

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/scan"
)

// buildOver builds a VA-file, and the data file under it, over the vectors
// on pages of the given size.
func buildOver(t testing.TB, vs []pfv.Vector, comb gaussian.Combiner, pageSize int) (*File, *scan.File, *pagefile.Manager) {
	t.Helper()
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(pageSize), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data, err := scan.Create(mgr, vs[0].Dim(), comb)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.AppendAll(vs); err != nil {
		t.Fatal(err)
	}
	va, err := Build(mgr, data, comb)
	if err != nil {
		t.Fatal(err)
	}
	return va, data, mgr
}

// cellBoundsOf returns every approximation with its cell's log floor and
// hull against q, in file order: what phase 1 of both query kinds sees.
func cellBoundsOf(t *testing.T, f *File, q pfv.Vector) []cand {
	t.Helper()
	var out []cand
	var c pagefile.Counter
	var stats query.Stats
	if err := f.filter(context.Background(), q, &c, &stats, func(x cand) { out = append(out, x) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// adversarialSet draws n vectors of dimension dim whose σ span 12 decades
// inside one vector, with a third of them on one of four shared means
// (coincident means collapse grid cells to points).
func adversarialSet(rng *rand.Rand, n, dim int) []pfv.Vector {
	shared := make([][]float64, 4)
	for i := range shared {
		shared[i] = make([]float64, dim)
		for j := range shared[i] {
			shared[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
	}
	vs := make([]pfv.Vector, n)
	for i := range vs {
		mean, sigma := make([]float64, dim), make([]float64, dim)
		for j := range mean {
			sigma[j] = math.Pow(10, rng.Float64()*12-6)
			mean[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
		if rng.Intn(3) == 0 {
			copy(mean, shared[rng.Intn(len(shared))])
		}
		vs[i] = pfv.MustNew(uint64(i+1), mean, sigma)
	}
	return vs
}

// adversarialQueries draws queries on stored means, on grid borders and far
// outside the data, with σ over 12 decades.
func adversarialQueries(rng *rand.Rand, f *File, vs []pfv.Vector, n int) []pfv.Vector {
	qs := make([]pfv.Vector, n)
	for i := range qs {
		src := vs[rng.Intn(len(vs))]
		mean, sigma := make([]float64, f.dim), make([]float64, f.dim)
		for j := range mean {
			sigma[j] = math.Pow(10, rng.Float64()*12-6)
			switch rng.Intn(4) {
			case 0:
				mean[j] = src.Mean[j]
			case 1:
				mean[j] = f.muGrid[j][rng.Intn(cells+1)]
			case 2:
				mean[j] = f.muGrid[j][rng.Intn(2)*cells] + rng.NormFloat64()*1e3
			default:
				mean[j] = src.Mean[j] + rng.NormFloat64()*sigma[j]
			}
		}
		qs[i] = pfv.MustNew(0, mean, sigma)
	}
	return qs
}

// TestCellBoundsContainExactDensity is the VA-file's bound property: for
// every approximation of a built file and every query, the cell's log floor
// and hull bracket the object's exact joint log density (within 1e-12
// relative) — on DS1- and DS2-like sets and adversarial ones (σ over 12
// decades in one vector, coincident means, d up to 64, entries in a grid's
// first and last cells), under both combiners.
func TestCellBoundsContainExactDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ds1 := dataset.DefaultHistogramParams()
	ds1.N = 700
	ds2 := dataset.DefaultSyntheticParams()
	ds2.N = 1500
	type set struct {
		name string
		vs   []pfv.Vector
		qs   func(f *File) []pfv.Vector // nil: adversarial queries
	}
	fromDataset := func(ds *dataset.Dataset, err error, sigma dataset.SigmaModel) set {
		if err != nil {
			t.Fatal(err)
		}
		return set{ds.Name, ds.Vectors, func(*File) []pfv.Vector {
			qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: 15, Sigma: sigma, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]pfv.Vector, len(qs))
			for i, q := range qs {
				out[i] = q.Vector
			}
			return out
		}}
	}
	h, herr := dataset.ColorHistograms(ds1)
	s, serr := dataset.Synthetic(ds2)
	sets := []set{
		fromDataset(h, herr, ds1.Sigma),
		fromDataset(s, serr, ds2.Sigma),
		{"adversarial d=1", adversarialSet(rng, 400, 1), nil},
		{"adversarial d=7", adversarialSet(rng, 600, 7), nil},
		{"adversarial d=64", adversarialSet(rng, 400, 64), nil},
	}
	for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		for _, st := range sets {
			f, data, _ := buildOver(t, st.vs, comb, 8192)
			var qs []pfv.Vector
			if st.qs != nil {
				qs = st.qs(f)
			} else {
				qs = adversarialQueries(rng, f, st.vs, 15)
			}
			edge := [2]bool{} // some parameter in a grid's first, last cell
			for _, v := range st.vs {
				for j := range v.Mean {
					for _, c := range []byte{cellOf(f.muGrid[j], v.Mean[j]), cellOf(f.sigmaGrid[j], v.Sigma[j])} {
						edge[0] = edge[0] || c == 0
						edge[1] = edge[1] || c == cells-1
					}
				}
			}
			if !edge[0] || !edge[1] {
				t.Fatalf("%s: no entry in a grid's first or last cell", st.name)
			}
			pages := map[uint32]*pfv.Columns{}
			for qi, q := range qs {
				got := cellBoundsOf(t, f, q)
				if len(got) != len(st.vs) {
					t.Fatalf("%s: %d approximations, want %d", st.name, len(got), len(st.vs))
				}
				for _, c := range got {
					cols := pages[c.pageOrdinal]
					if cols == nil {
						var err error
						if cols, err = data.PageColumns(int(c.pageOrdinal), nil); err != nil {
							t.Fatal(err)
						}
						pages[c.pageOrdinal] = cols
					}
					v := cols.Vector(int(c.slot))
					exact := pfv.JointLogDensity(comb, v, q)
					tol := 1e-12 * math.Max(1, math.Abs(exact))
					if !(c.logFloor <= exact+tol && exact <= c.logHull+tol) {
						t.Fatalf("%v %s query %d object %d: exact %v outside cell bounds [%v, %v]",
							comb, st.name, qi, v.ID, exact, c.logFloor, c.logHull)
					}
				}
			}
		}
	}
}

// BenchmarkVAFilePhase1 times phase 1 of both query kinds — reading the
// approximation pages and bounding every cell — over DS2-like (d = 10) and
// DS1-like (d = 27) files of 3 000 vectors, in ns per approximation.
func BenchmarkVAFilePhase1(b *testing.B) {
	ds1 := dataset.DefaultHistogramParams()
	ds2 := dataset.DefaultSyntheticParams()
	ds1.N, ds2.N = 3000, 3000
	h, _ := dataset.ColorHistograms(ds1)
	s, _ := dataset.Synthetic(ds2)
	for _, c := range []struct {
		name  string
		ds    *dataset.Dataset
		sigma dataset.SigmaModel
	}{{"d-10", s, ds2.Sigma}, {"d-27", h, ds1.Sigma}} {
		b.Run(c.name, func(b *testing.B) {
			f, _, _ := buildOver(b, c.ds.Vectors, gaussian.CombineAdditive, 8192)
			qs, err := dataset.MakeQueries(c.ds, dataset.QueryParams{Count: 50, Sigma: c.sigma, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			var stats query.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var counter pagefile.Counter
				if err := f.filter(context.Background(), qs[i%len(qs)].Vector, &counter, &stats, func(cand) {}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.Len()), "ns/approx")
		})
	}
}
