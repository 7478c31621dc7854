package pfv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gauss-tree/gausstree/internal/gaussian"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol || diff <= tol*scale
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		mean  []float64
		sigma []float64
		ok    bool
	}{
		{"valid", []float64{1, 2}, []float64{0.1, 0.2}, true},
		{"mismatch", []float64{1, 2}, []float64{0.1}, false},
		{"empty", nil, nil, false},
		{"zero sigma", []float64{1}, []float64{0}, false},
		{"negative sigma", []float64{1}, []float64{-0.5}, false},
		{"nan mean", []float64{math.NaN()}, []float64{1}, false},
		{"inf mean", []float64{math.Inf(1)}, []float64{1}, false},
		{"nan sigma", []float64{1}, []float64{math.NaN()}, false},
		{"inf sigma", []float64{1}, []float64{math.Inf(1)}, false},
	}
	for _, c := range cases {
		_, err := New(7, c.mean, c.sigma)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad input should panic")
		}
	}()
	MustNew(1, []float64{1}, []float64{-1})
}

func TestCloneAndEqual(t *testing.T) {
	v := MustNew(3, []float64{1, 2}, []float64{0.1, 0.2})
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatal("clone should be equal")
	}
	w.Mean[0] = 99
	if v.Equal(w) {
		t.Error("mutating clone must not affect original")
	}
	if v.Mean[0] != 1 {
		t.Error("original mutated through clone")
	}
	u := MustNew(4, []float64{1, 2}, []float64{0.1, 0.2})
	if v.Equal(u) {
		t.Error("different ids must not be equal")
	}
	short := MustNew(3, []float64{1}, []float64{0.1})
	if v.Equal(short) {
		t.Error("different dims must not be equal")
	}
	sig := MustNew(3, []float64{1, 2}, []float64{0.1, 0.3})
	if v.Equal(sig) {
		t.Error("different sigmas must not be equal")
	}
}

func TestStringAndDim(t *testing.T) {
	v := MustNew(12, []float64{1, 2, 3}, []float64{1, 1, 1})
	if v.Dim() != 3 {
		t.Errorf("Dim = %d", v.Dim())
	}
	if v.String() != "pfv{id=12 d=3}" {
		t.Errorf("String = %q", v.String())
	}
}

func TestLogDensityAtIsProductOfUnivariates(t *testing.T) {
	v := MustNew(1, []float64{0, 5, -2}, []float64{1, 0.5, 2})
	x := []float64{0.3, 4.8, -1}
	want := gaussian.LogPDF(0, 1, 0.3) + gaussian.LogPDF(5, 0.5, 4.8) + gaussian.LogPDF(-2, 2, -1)
	if got := v.LogDensityAt(x); !almostEqual(got, want, 1e-13) {
		t.Errorf("LogDensityAt = %v, want %v", got, want)
	}
}

func TestLogDensityAtPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(1, []float64{0}, []float64{1}).LogDensityAt([]float64{1, 2})
}

func TestJointLogDensitySymmetryProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Intn(8) + 1
		mk := func(id uint64) Vector {
			mean := make([]float64, d)
			sigma := make([]float64, d)
			for i := range mean {
				mean[i] = rng.NormFloat64() * 10
				sigma[i] = rng.Float64()*3 + 0.01
			}
			return MustNew(id, mean, sigma)
		}
		v, q := mk(1), mk(2)
		for _, c := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
			if !almostEqual(JointLogDensity(c, v, q), JointLogDensity(c, q, v), 1e-11) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestJointEvaluatorBitIdentical pins the contract the query engines rely
// on: the pooled per-query evaluator must produce bit-identical log
// densities to JointLogDensity under both σ-combination rules, for any
// vector pair — otherwise traversal pruning bounds and reported densities
// could disagree between code paths.
func TestJointEvaluatorBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		for trial := 0; trial < 500; trial++ {
			dim := 1 + rng.Intn(27)
			mkvec := func(id uint64) Vector {
				mean := make([]float64, dim)
				sigma := make([]float64, dim)
				for i := range mean {
					mean[i] = rng.NormFloat64() * 100
					sigma[i] = rng.Float64()*10 + 1e-6
				}
				return MustNew(id, mean, sigma)
			}
			v, q := mkvec(1), mkvec(2)
			e := NewJointEvaluator(comb, q)
			got := e.LogDensity(v)
			want := JointLogDensity(comb, v, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v dim %d: evaluator %v != JointLogDensity %v", comb, dim, got, want)
			}
		}
	}
	// Reset re-targets the evaluator.
	var e JointEvaluator
	q := MustNew(9, []float64{1}, []float64{2})
	v := MustNew(8, []float64{0.5}, []float64{1})
	e.Reset(gaussian.CombineConvolution, q)
	if e.LogDensity(v) != JointLogDensity(gaussian.CombineConvolution, v, q) {
		t.Error("reset evaluator diverged")
	}
}

// TestJointEvaluatorZeroAlloc proves scoring through the evaluator performs
// no allocations — the property the traversal's hot leaf loop depends on.
func TestJointEvaluatorZeroAlloc(t *testing.T) {
	q := MustNew(1, []float64{0, 1, 2}, []float64{1, 1, 1})
	v := MustNew(2, []float64{0.5, 1.5, 2.5}, []float64{0.7, 0.8, 0.9})
	e := NewJointEvaluator(gaussian.CombineAdditive, q)
	sink := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		sink += e.LogDensity(v)
	})
	if allocs != 0 {
		t.Errorf("LogDensity allocated %.1f objects per call, want 0", allocs)
	}
	if math.IsNaN(sink) {
		t.Error("unexpected NaN")
	}
}

func TestJointLogDensityPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	JointLogDensity(gaussian.CombineAdditive,
		MustNew(1, []float64{0}, []float64{1}),
		MustNew(2, []float64{0, 1}, []float64{1, 1}))
}

func TestPosteriorSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := 27 // the paper's data set 1 dimensionality: exercises underflow
	db := make([]Vector, 50)
	for i := range db {
		mean := make([]float64, d)
		sigma := make([]float64, d)
		for j := range mean {
			mean[j] = rng.Float64()
			sigma[j] = rng.Float64()*0.05 + 0.001
		}
		db[i] = MustNew(uint64(i), mean, sigma)
	}
	q := db[17].Clone()
	q.ID = 9999
	ps := Posterior(gaussian.CombineAdditive, db, q)
	sum := 0.0
	for _, p := range ps {
		if p < 0 || p > 1 {
			t.Fatalf("posterior out of range: %v", p)
		}
		sum += p
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("posteriors sum to %v", sum)
	}
	// The query is a copy of object 17: it must dominate.
	best := 0
	for i, p := range ps {
		if p > ps[best] {
			best = i
		}
	}
	if best != 17 {
		t.Errorf("expected object 17 to dominate, got %d", best)
	}
	if len(Posterior(gaussian.CombineAdditive, nil, q)) != 0 {
		t.Error("empty db should give empty posterior")
	}
}

func TestPosteriorIndifferenceForHugeUncertainty(t *testing.T) {
	// Paper §4 property 3: σ→∞ drives the posterior to 1/n.
	db := []Vector{
		MustNew(1, []float64{0, 0}, []float64{1e6, 1e6}),
		MustNew(2, []float64{50, -3}, []float64{1e6, 1e6}),
		MustNew(3, []float64{-20, 8}, []float64{1e6, 1e6}),
	}
	q := MustNew(9, []float64{1, 1}, []float64{1, 1})
	for _, p := range Posterior(gaussian.CombineAdditive, db, q) {
		if !almostEqual(p, 1.0/3, 1e-6) {
			t.Errorf("posterior %v, want ~1/3", p)
		}
	}
}

// TestFigure1Example reproduces the worked example of paper Figure 1 / §3.1:
// three facial-image pfv of varying quality and one query. The paper reports
// identification probabilities of 10% (O1), 13% (O2) and 77% (O3) while the
// plain Euclidean distances (1.53, 1.97, 1.74) would rank O1 first — the
// motivating discrepancy for the whole model. The exact coordinates are not
// printed in the paper; this configuration was fitted to reproduce all six
// reported numbers and respects the narrative (O1 accurate in both features,
// O2 inaccurate in both, O3 inaccurate in F1 only, query inaccurate in F2).
func TestFigure1Example(t *testing.T) {
	q := MustNew(0, []float64{0, 0}, []float64{0.0617, 0.9401})
	o1 := MustNew(1, []float64{1.1503, 1.0088}, []float64{0.3579, 0.2864})
	o2 := MustNew(2, []float64{1.8674, 0.6274}, []float64{0.8130, 1.8051})
	o3 := MustNew(3, []float64{1.3597, 1.0857}, []float64{1.3154, 0.1790})
	db := []Vector{o1, o2, o3}

	// Euclidean distances on the means match the paper and rank O1 first.
	wantDist := []float64{1.53, 1.97, 1.74}
	for i, v := range db {
		if got := EuclideanDistance(q, v); !almostEqual(got, wantDist[i], 2e-3) {
			t.Errorf("d(Q,O%d) = %v, want %v", i+1, got, wantDist[i])
		}
	}
	nn := 0
	for i, v := range db {
		if EuclideanDistance(q, v) < EuclideanDistance(q, db[nn]) {
			nn = i
		}
	}
	if db[nn].ID != 1 {
		t.Errorf("Euclidean NN should be O1, got O%d", db[nn].ID)
	}

	// The Bayesian posteriors match the paper and rank O3 first.
	ps := Posterior(gaussian.CombineAdditive, db, q)
	wantP := []float64{0.10, 0.13, 0.77}
	for i := range ps {
		if math.Abs(ps[i]-wantP[i]) > 0.015 {
			t.Errorf("P(O%d|q) = %.3f, want %.2f", i+1, ps[i], wantP[i])
		}
	}
	if !(ps[2] > ps[1] && ps[1] > ps[0]) {
		t.Errorf("posterior ordering wrong: %v", ps)
	}
	// A TIQ with Pθ=12% reports O3 and O2 (paper §3.1).
	var hits []uint64
	for i, p := range ps {
		if p >= 0.12 {
			hits = append(hits, db[i].ID)
		}
	}
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 3 {
		t.Errorf("TIQ(0.12) hits = %v, want [2 3]", hits)
	}
}

func TestQuantileBox(t *testing.T) {
	v := MustNew(1, []float64{10, -5}, []float64{2, 0.5})
	lo, hi := v.QuantileBox(0.95, nil, nil)
	z := gaussian.StdQuantile(0.975)
	if !almostEqual(lo[0], 10-z*2, 1e-12) || !almostEqual(hi[0], 10+z*2, 1e-12) {
		t.Errorf("dim0 box = [%v,%v]", lo[0], hi[0])
	}
	if !almostEqual(lo[1], -5-z*0.5, 1e-12) || !almostEqual(hi[1], -5+z*0.5, 1e-12) {
		t.Errorf("dim1 box = [%v,%v]", lo[1], hi[1])
	}
	// Coverage check by simulation.
	rng := rand.New(rand.NewSource(4))
	in := 0
	const n = 200000
	for i := 0; i < n; i++ {
		x0 := 10 + rng.NormFloat64()*2
		x1 := -5 + rng.NormFloat64()*0.5
		if x0 >= lo[0] && x0 <= hi[0] && x1 >= lo[1] && x1 <= hi[1] {
			in++
		}
	}
	got := float64(in) / n
	want := 0.95 * 0.95 // independent dims: joint coverage is the product
	if math.Abs(got-want) > 0.01 {
		t.Errorf("simulated joint coverage %v, want ~%v", got, want)
	}
	// Buffer reuse path.
	buf1, buf2 := make([]float64, 2), make([]float64, 2)
	lo2, hi2 := v.QuantileBox(0.95, buf1, buf2)
	if &lo2[0] != &buf1[0] || &hi2[0] != &buf2[0] {
		t.Error("provided buffers should be reused")
	}
}

func TestEuclideanDistance(t *testing.T) {
	a := MustNew(1, []float64{0, 0}, []float64{1, 1})
	b := MustNew(2, []float64{3, 4}, []float64{9, 9})
	if got := EuclideanDistance(a, b); !almostEqual(got, 5, 1e-15) {
		t.Errorf("distance = %v, want 5 (sigma must be ignored)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	EuclideanDistance(a, MustNew(3, []float64{1}, []float64{1}))
}
