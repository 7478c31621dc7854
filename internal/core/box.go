// Package core implements the Gauss-tree (paper §5): a balanced,
// R-tree-family index over the *parameter space* (μᵢ, σᵢ) of probabilistic
// feature vectors rather than over the Gaussian curves as spatial objects.
// Inner nodes store, per child, a 2d-dimensional minimum bounding rectangle
// [μ̌ᵢ,μ̂ᵢ]×[σ̌ᵢ,σ̂ᵢ] plus the subtree's object count; leaves store the pfv
// themselves. Query processing prunes with the conservative hull ˆN
// (Lemma 2), the floor ˇN (Lemma 3) and the node-sum bounds n·ˇN ≤ Σ ≤ n·ˆN,
// and the split strategy minimizes the hull integral ∫ˆN (§5.3).
package core

import (
	"math"
	"slices"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// ParamBox is a minimum bounding rectangle in the 2d-dimensional parameter
// space of a Gauss-tree node: per feature dimension one μ interval and one
// σ interval (Definition 4).
type ParamBox struct {
	Mu    []gaussian.Interval
	Sigma []gaussian.Interval
}

// NewParamBox returns an "empty" box of the given dimension, prepared for
// extension: all intervals are inverted (+Inf, −Inf) so the first Extend
// snaps them to a point.
func NewParamBox(dim int) ParamBox {
	b := ParamBox{
		Mu:    make([]gaussian.Interval, dim),
		Sigma: make([]gaussian.Interval, dim),
	}
	for i := 0; i < dim; i++ {
		b.Mu[i] = gaussian.Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
		b.Sigma[i] = gaussian.Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
	}
	return b
}

// BoxOf returns the degenerate box covering exactly one vector's parameters.
func BoxOf(v pfv.Vector) ParamBox {
	b := ParamBox{
		Mu:    make([]gaussian.Interval, v.Dim()),
		Sigma: make([]gaussian.Interval, v.Dim()),
	}
	for i := range v.Mean {
		b.Mu[i] = gaussian.Interval{Lo: v.Mean[i], Hi: v.Mean[i]}
		b.Sigma[i] = gaussian.Interval{Lo: v.Sigma[i], Hi: v.Sigma[i]}
	}
	return b
}

// BoxOfVectors returns the minimum bounding box of a non-empty vector set.
func BoxOfVectors(vs []pfv.Vector) ParamBox {
	if len(vs) == 0 {
		panic("core: BoxOfVectors of empty set")
	}
	b := BoxOf(vs[0])
	for _, v := range vs[1:] {
		b.ExtendVector(v)
	}
	return b
}

// BoxOfColumns returns the minimum bounding box of a non-empty columnar
// batch; it equals BoxOfVectors of the same vectors.
func BoxOfColumns(c *pfv.Columns) ParamBox {
	if c.Len() == 0 {
		panic("core: BoxOfColumns of empty batch")
	}
	b := NewParamBox(c.Dim())
	sgMin, sgMax := c.SigmaRange()
	for i, col := range c.Mean {
		for _, m := range col {
			b.Mu[i] = b.Mu[i].Extend(m)
		}
		b.Sigma[i] = gaussian.Interval{Lo: sgMin[i], Hi: sgMax[i]}
	}
	return b
}

// Dim returns the feature dimensionality of the box.
func (b ParamBox) Dim() int { return len(b.Mu) }

// Clone returns a deep copy.
func (b ParamBox) Clone() ParamBox {
	return ParamBox{
		Mu:    append([]gaussian.Interval(nil), b.Mu...),
		Sigma: append([]gaussian.Interval(nil), b.Sigma...),
	}
}

// Equal reports exact bound equality.
func (b ParamBox) Equal(o ParamBox) bool {
	if len(b.Mu) != len(o.Mu) {
		return false
	}
	for i := range b.Mu {
		if b.Mu[i] != o.Mu[i] || b.Sigma[i] != o.Sigma[i] {
			return false
		}
	}
	return true
}

// ContainsVector reports whether the vector's (μ,σ) parameters lie inside
// the box in every dimension.
func (b ParamBox) ContainsVector(v pfv.Vector) bool {
	for i := range b.Mu {
		if !b.Mu[i].Contains(v.Mean[i]) || !b.Sigma[i].Contains(v.Sigma[i]) {
			return false
		}
	}
	return true
}

// ExtendVector grows the box in place to cover the vector's parameters.
func (b *ParamBox) ExtendVector(v pfv.Vector) {
	for i := range b.Mu {
		b.Mu[i] = b.Mu[i].Extend(v.Mean[i])
		b.Sigma[i] = b.Sigma[i].Extend(v.Sigma[i])
	}
}

// ExtendBox grows the box in place to cover another box.
func (b *ParamBox) ExtendBox(o ParamBox) {
	for i := range b.Mu {
		b.Mu[i] = b.Mu[i].Union(o.Mu[i])
		b.Sigma[i] = b.Sigma[i].Union(o.Sigma[i])
	}
}

// Margin returns the sum of all 2d side lengths, used to break ties between
// volume enlargements when boxes are degenerate (zero volume).
func (b ParamBox) Margin() float64 {
	m := 0.0
	for i := range b.Mu {
		m += b.Mu[i].Width() + b.Sigma[i].Width()
	}
	return m
}

// MarginEnlargement returns Margin(b ∪ point(v)) − Margin(b).
func (b ParamBox) MarginEnlargement(v pfv.Vector) float64 {
	grown := 0.0
	for i := range b.Mu {
		grown += b.Mu[i].Extend(v.Mean[i]).Width() + b.Sigma[i].Extend(v.Sigma[i]).Width()
	}
	return grown - b.Margin()
}

// boxColumnsOf transposes the child boxes of a writer's inner node into the
// block the bound kernel reads (pfv.Boxes); the node codec writes and reads
// that block, and the writer and the validators work on ParamBox values
// (entryBox materializes one).
func boxColumnsOf(children []childEntry, dim int) pfv.Boxes {
	b := pfv.NewBoxes(dim, len(children))
	for i := 0; i < dim; i++ {
		muLo, muHi, sgLo, sgHi := b.Dim(i)
		for j := range children {
			mu, sg := children[j].box.Mu[i], children[j].box.Sigma[i]
			muLo[j], muHi[j], sgLo[j], sgHi[j] = mu.Lo, mu.Hi, sg.Lo, sg.Hi
		}
	}
	return b
}

// union returns the one box that bounds all N ≥ 1 of b's.
func union(b *pfv.Boxes, dim int) pfv.Boxes {
	u := pfv.NewBoxes(dim, 1)
	for i := 0; i < dim; i++ {
		muLo, muHi, sgLo, sgHi := b.Dim(i)
		u.Data[4*i], u.Data[4*i+1] = slices.Min(muLo), slices.Max(muHi)
		u.Data[4*i+2], u.Data[4*i+3] = slices.Min(sgLo), slices.Max(sgHi)
	}
	return u
}

// entryBox materializes entry j of b as a ParamBox of the given dimension.
func entryBox(b *pfv.Boxes, j, dim int) ParamBox {
	ivs := make([]gaussian.Interval, 2*dim)
	out := ParamBox{Mu: ivs[:dim:dim], Sigma: ivs[dim:]}
	boxInto(b, j, out)
	return out
}

// boxInto overwrites dst, a box of b's dimension, with entry j.
func boxInto(b *pfv.Boxes, j int, dst ParamBox) {
	for i := range dst.Mu {
		muLo, muHi, sgLo, sgHi := b.Dim(i)
		dst.Mu[i] = gaussian.Interval{Lo: muLo[j], Hi: muHi[j]}
		dst.Sigma[i] = gaussian.Interval{Lo: sgLo[j], Hi: sgHi[j]}
	}
}

// containsVector is ParamBox.ContainsVector of entry j of b.
func containsVector(b *pfv.Boxes, j int, v pfv.Vector) bool {
	for i := range v.Mean {
		muLo, muHi, sgLo, sgHi := b.Dim(i)
		m, sg := v.Mean[i], v.Sigma[i]
		if !(muLo[j] <= m && m <= muHi[j] && sgLo[j] <= sg && sg <= sgHi[j]) {
			return false
		}
	}
	return true
}

// LogAccessCost returns the log of the box's access cost, the split objective
// of §5.3: the product over dimensions of the per-dimension hull integrals
// ∫ˆN(x)dx. Each factor is ≥ 1 (see gaussian.HullIntegral), so the product is
// a monotone multivariate surrogate for the probability that an arbitrary
// query must access a node with this bounding box; in log space it is immune
// to overflow in high dimensionalities (27-dimensional boxes reach products
// near 1e66).
func (b ParamBox) LogAccessCost() float64 {
	cost := 0.0
	for i := range b.Mu {
		cost += math.Log(gaussian.HullIntegral(b.Mu[i], b.Sigma[i]))
	}
	return cost
}

// LogAccessCostWith returns LogAccessCost of the box extended by the
// vector's parameters, without materializing the extended box.
func (b ParamBox) LogAccessCostWith(v pfv.Vector) float64 {
	cost := 0.0
	for i := range b.Mu {
		cost += math.Log(gaussian.HullIntegral(
			b.Mu[i].Extend(v.Mean[i]), b.Sigma[i].Extend(v.Sigma[i])))
	}
	return cost
}

// minWidth floors interval widths in log-volume computations so degenerate
// (zero-width) dimensions do not collapse the whole product to −Inf, which
// would erase all ordering information between candidate boxes.
const minWidth = 1e-12

// LogVolume returns Σ ln(widthμ·widthσ) with widths floored at minWidth:
// an overflow/underflow-safe ordering-equivalent of the box's volume for
// high-dimensional parameter spaces (54 factors for d=27 underflow float64
// almost immediately).
func (b ParamBox) LogVolume() float64 {
	v := 0.0
	for i := range b.Mu {
		v += math.Log(math.Max(b.Mu[i].Width(), minWidth)) +
			math.Log(math.Max(b.Sigma[i].Width(), minWidth))
	}
	return v
}

// AccessCostSum returns the alternative split objective that adds the
// per-dimension hull integrals instead of multiplying them (ablation A2).
func (b ParamBox) AccessCostSum() float64 {
	cost := 0.0
	for i := range b.Mu {
		cost += gaussian.HullIntegral(b.Mu[i], b.Sigma[i])
	}
	return cost
}
