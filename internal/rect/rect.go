// Package rect provides d-dimensional axis-aligned rectangles (minimum
// bounding rectangles) with the geometric predicates and measures needed by
// R-tree-family index structures: containment, intersection, union, area,
// margin, overlap, and enlargement. The X-tree baseline indexes the 95%
// quantile boxes of probabilistic feature vectors with these rectangles.
package rect

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned box [Lo[i], Hi[i]] per dimension. Lo and Hi
// always have equal length. The zero value is an invalid rectangle; use New
// or MustNew.
type Rect struct {
	Lo, Hi []float64
}

// New validates and constructs a rectangle. The slices are retained.
func New(lo, hi []float64) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("rect: dimension mismatch: %d vs %d", len(lo), len(hi))
	}
	if len(lo) == 0 {
		return Rect{}, fmt.Errorf("rect: zero-dimensional rectangle")
	}
	for i := range lo {
		if math.IsNaN(lo[i]) || math.IsNaN(hi[i]) {
			return Rect{}, fmt.Errorf("rect: NaN bound in dimension %d", i)
		}
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("rect: reversed bounds in dimension %d: %v > %v", i, lo[i], hi[i])
		}
	}
	return Rect{Lo: lo, Hi: hi}, nil
}

// MustNew is New but panics on invalid input.
func MustNew(lo, hi []float64) Rect {
	r, err := New(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// Dim returns the dimensionality.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy.
func (r Rect) Clone() Rect {
	return Rect{Lo: append([]float64(nil), r.Lo...), Hi: append([]float64(nil), r.Hi...)}
}

// Equal reports exact bound equality.
func (r Rect) Equal(s Rect) bool {
	if len(r.Lo) != len(s.Lo) {
		return false
	}
	for i := range r.Lo {
		if r.Lo[i] != s.Lo[i] || r.Hi[i] != s.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies fully inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether the closed boxes share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if s.Hi[i] < r.Lo[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume ∏(Hi−Lo). Degenerate boxes have
// zero area.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of side lengths Σ(Hi−Lo), the R*-tree margin
// measure (up to the constant 2^(d−1) factor, irrelevant for comparisons).
func (r Rect) Margin() float64 {
	m := 0.0
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Overlap returns the volume of the intersection of r and s, 0 if disjoint.
func (r Rect) Overlap(s Rect) float64 {
	v := 1.0
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		if s.Lo[i] > lo {
			lo = s.Lo[i]
		}
		if s.Hi[i] < hi {
			hi = s.Hi[i]
		}
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make([]float64, len(r.Lo))
	hi := make([]float64, len(r.Lo))
	for i := range r.Lo {
		lo[i], hi[i] = r.Lo[i], r.Hi[i]
		if s.Lo[i] < lo[i] {
			lo[i] = s.Lo[i]
		}
		if s.Hi[i] > hi[i] {
			hi[i] = s.Hi[i]
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// ExtendInPlace grows r to cover s, reusing r's backing slices.
func (r *Rect) ExtendInPlace(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// Enlargement returns Area(r ∪ s) − Area(r): the volume growth needed to
// absorb s, the Guttman choose-subtree criterion.
func (r Rect) Enlargement(s Rect) float64 {
	grown := 1.0
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		if s.Lo[i] < lo {
			lo = s.Lo[i]
		}
		if s.Hi[i] > hi {
			hi = s.Hi[i]
		}
		grown *= hi - lo
	}
	return grown - r.Area()
}
