package rect

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New([]float64{0}, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, err := New(nil, nil); err == nil {
		t.Error("zero-dim should fail")
	}
	if _, err := New([]float64{2}, []float64{1}); err == nil {
		t.Error("reversed bounds should fail")
	}
	if _, err := New([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Error("NaN should fail")
	}
	if _, err := New([]float64{0, 0}, []float64{1, 1}); err != nil {
		t.Errorf("valid rect rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew([]float64{1}, []float64{0})
}

func TestContainsIntersects(t *testing.T) {
	outer := MustNew([]float64{0, 0}, []float64{10, 10})
	inner := MustNew([]float64{2, 2}, []float64{5, 5})
	partial := MustNew([]float64{8, 8}, []float64{12, 12})
	disjoint := MustNew([]float64{11, 11}, []float64{12, 12})
	touching := MustNew([]float64{10, 0}, []float64{11, 1})

	if !outer.ContainsRect(inner) || outer.ContainsRect(partial) {
		t.Error("ContainsRect wrong")
	}
	if !outer.Intersects(inner) || !outer.Intersects(partial) {
		t.Error("Intersects wrong for overlapping boxes")
	}
	if outer.Intersects(disjoint) {
		t.Error("disjoint boxes must not intersect")
	}
	if !outer.Intersects(touching) {
		t.Error("boundary-touching boxes are closed: must intersect")
	}
}

func TestMeasures(t *testing.T) {
	r := MustNew([]float64{0, 0, 0}, []float64{2, 3, 4})
	if r.Area() != 24 {
		t.Errorf("Area = %v", r.Area())
	}
	if r.Margin() != 9 {
		t.Errorf("Margin = %v", r.Margin())
	}
	s := MustNew([]float64{1, 1, 1}, []float64{3, 4, 5})
	if got := r.Overlap(s); got != 1*2*3 {
		t.Errorf("Overlap = %v, want 6", got)
	}
	far := MustNew([]float64{10, 10, 10}, []float64{11, 11, 11})
	if r.Overlap(far) != 0 {
		t.Error("disjoint overlap should be 0")
	}
	u := r.Union(s)
	if !u.Equal(MustNew([]float64{0, 0, 0}, []float64{3, 4, 5})) {
		t.Errorf("Union = %+v", u)
	}
	if got := r.Enlargement(s); got != u.Area()-r.Area() {
		t.Errorf("Enlargement = %v, want %v", got, u.Area()-r.Area())
	}
	if got := r.Enlargement(MustNew([]float64{0, 0, 0}, []float64{1, 1, 1})); got != 0 {
		t.Errorf("contained rect should not enlarge, got %v", got)
	}
}

func TestExtendInPlace(t *testing.T) {
	r := MustNew([]float64{0, 0}, []float64{1, 1})
	r.ExtendInPlace(MustNew([]float64{-1, 0.5}, []float64{0.5, 3}))
	if !r.Equal(MustNew([]float64{-1, 0}, []float64{1, 3})) {
		t.Errorf("ExtendInPlace = %+v", r)
	}
}

func randRect(rng *rand.Rand, dim int) Rect {
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for i := range lo {
		a, b := rng.NormFloat64()*10, rng.NormFloat64()*10
		lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
	}
	return Rect{Lo: lo, Hi: hi}
}

func TestGeometryProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(31))}
	prop := func(seed int64, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := int(dRaw%6) + 1
		a, b := randRect(rng, dim), randRect(rng, dim)
		u := a.Union(b)
		// Union contains both; overlap is symmetric and bounded; enlargement
		// is non-negative; intersects is symmetric and consistent w/ overlap.
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		if math.Abs(a.Overlap(b)-b.Overlap(a)) > 1e-9 {
			return false
		}
		if a.Overlap(b) > math.Min(a.Area(), b.Area())+1e-9 {
			return false
		}
		if a.Enlargement(b) < -1e-9 {
			return false
		}
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		if a.Overlap(b) > 0 && !a.Intersects(b) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
