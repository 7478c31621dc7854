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
	for i, col := range c.Mean {
		for _, m := range col {
			b.Mu[i] = b.Mu[i].Extend(m)
		}
		b.Sigma[i] = gaussian.Interval{Lo: c.SigmaMin[i], Hi: c.SigmaMax[i]}
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

// ContainsBox reports whether o lies fully inside b.
func (b ParamBox) ContainsBox(o ParamBox) bool {
	for i := range b.Mu {
		if o.Mu[i].Lo < b.Mu[i].Lo || o.Mu[i].Hi > b.Mu[i].Hi ||
			o.Sigma[i].Lo < b.Sigma[i].Lo || o.Sigma[i].Hi > b.Sigma[i].Hi {
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

// Volume returns the 2d-dimensional volume of the box, the measure used by
// the paper's least-volume-increase insertion rule.
func (b ParamBox) Volume() float64 {
	v := 1.0
	for i := range b.Mu {
		v *= b.Mu[i].Width() * b.Sigma[i].Width()
	}
	return v
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

// VolumeEnlargement returns Volume(b ∪ point(v)) − Volume(b).
func (b ParamBox) VolumeEnlargement(v pfv.Vector) float64 {
	grown := 1.0
	for i := range b.Mu {
		grown *= b.Mu[i].Extend(v.Mean[i]).Width() * b.Sigma[i].Extend(v.Sigma[i]).Width()
	}
	return grown - b.Volume()
}

// MarginEnlargement returns Margin(b ∪ point(v)) − Margin(b).
func (b ParamBox) MarginEnlargement(v pfv.Vector) float64 {
	grown := 0.0
	for i := range b.Mu {
		grown += b.Mu[i].Extend(v.Mean[i]).Width() + b.Sigma[i].Extend(v.Sigma[i]).Width()
	}
	return grown - b.Margin()
}

// LogHullAt returns ln ˆN(q) for the whole box against a probabilistic query
// vector: the log hull with the per-dimension σ intervals shifted by the
// query's uncertainty (§5.2, "the conservative approximations ... can be
// determined by ˆN_{μ̌,μ̂,σ̌+σq,σ̂+σq}(μq)"). It is the priority of the node in
// the best-first traversal: the maximum (relative) joint log density any pfv
// inside the box could reach.
//
// Like the density evaluators, the hull runs in product form: the sector
// terms of gaussian.HullTerm multiply across dimensions and one logarithm of
// the product replaces d per-dimension logarithms, with a per-dimension
// log-sum fallback when the product leaves the float64 range.
// The loop bodies of LogHullAt and LogHullFloorAt inline the sector logic of
// gaussian.HullTerm/FloorTerm (which the compiler will not inline) and the
// combiner's interval arithmetic, because these run per dimension per pushed
// child — the single hottest loop of a traversal. Sloped hull sectors fold
// their e^{−½} factor into the z² sum as a +1 term. The inlined copies must
// stay operation-for-operation identical to the gaussian kernels, which the
// bounds property tests cross-check.
func (b ParamBox) LogHullAt(c gaussian.Combiner, q pfv.Vector) float64 {
	hull, _ := b.logHullAtLim(c, q, math.Inf(1))
	return hull
}

// LogHullAtScreened is LogHullAt with an early exit for ranked traversals:
// zLim is a z²-sum threshold derived from the query's σ-product floor (see
// traversal.hullCut) such that once the partial Σz² reaches zLim, the hull
// provably cannot exceed the current top-k admission bound. It then reports
// ok=false without finishing the loop or taking the logarithm; the caller
// may drop the child entirely, because the admission bound is monotone and
// the best-first loop would never have expanded it.
func (b ParamBox) LogHullAtScreened(c gaussian.Combiner, q pfv.Vector, zLim float64) (hull float64, ok bool) {
	return b.logHullAtLim(c, q, zLim)
}

func (b ParamBox) logHullAtLim(c gaussian.Combiner, q pfv.Vector, zLim float64) (float64, bool) {
	conv := c == gaussian.CombineConvolution
	prod, sumZ := 1.0, 0.0
	for i := range b.Mu {
		if sumZ >= zLim {
			return 0, false
		}
		var csLo, csHi float64
		if conv {
			csLo = math.Hypot(b.Sigma[i].Lo, q.Sigma[i])
			csHi = math.Hypot(b.Sigma[i].Hi, q.Sigma[i])
		} else {
			csLo = b.Sigma[i].Lo + q.Sigma[i]
			csHi = b.Sigma[i].Hi + q.Sigma[i]
		}
		x, muLo, muHi := q.Mean[i], b.Mu[i].Lo, b.Mu[i].Hi
		var s, z float64
		switch {
		case x < muLo:
			d := muLo - x
			switch {
			case d > csHi:
				s, z = csHi, (x-muLo)/csHi
			case d > csLo:
				s, sumZ = d, sumZ+1
			default:
				s, z = csLo, (x-muLo)/csLo
			}
		case x <= muHi:
			s = csLo
		default:
			d := x - muHi
			switch {
			case d < csLo:
				s, z = csLo, (x-muHi)/csLo
			case d < csHi:
				s, sumZ = d, sumZ+1
			default:
				s, z = csHi, (x-muHi)/csHi
			}
		}
		prod *= s
		sumZ += z * z
	}
	if sumZ >= zLim {
		return 0, false
	}
	lnS := math.Log(prod)
	if math.IsInf(lnS, 0) {
		lnS = 0
		for i := range b.Mu {
			sig := c.CombineInterval(b.Sigma[i], q.Sigma[i])
			s, _, _ := gaussian.HullTerm(b.Mu[i], sig, q.Mean[i])
			lnS += math.Log(s)
		}
	}
	return -0.5*float64(len(b.Mu))*gaussian.Ln2Pi - lnS - 0.5*sumZ, true
}

// LogFloorAt returns ln ˇN(q) for the whole box against a probabilistic
// query vector: the minimum joint log density any pfv inside the box could
// have. Together with the subtree count it lower-bounds the node's
// contribution to the Bayes denominator. Evaluated in product form like
// LogHullAt, via gaussian.FloorTerm.
func (b ParamBox) LogFloorAt(c gaussian.Combiner, q pfv.Vector) float64 {
	conv := c == gaussian.CombineConvolution
	prod, sumZ := 1.0, 0.0
	for i := range b.Mu {
		var csLo, csHi float64
		if conv {
			csLo = math.Hypot(b.Sigma[i].Lo, q.Sigma[i])
			csHi = math.Hypot(b.Sigma[i].Hi, q.Sigma[i])
		} else {
			csLo = b.Sigma[i].Lo + q.Sigma[i]
			csHi = b.Sigma[i].Hi + q.Sigma[i]
		}
		s, z := floorTermInline(b.Mu[i].Lo, b.Mu[i].Hi, csLo, csHi, q.Mean[i])
		prod *= s
		sumZ += z * z
	}
	lnS := math.Log(prod)
	if math.IsInf(lnS, 0) {
		lnS = 0
		for i := range b.Mu {
			sig := c.CombineInterval(b.Sigma[i], q.Sigma[i])
			s, _ := gaussian.FloorTerm(b.Mu[i], sig, q.Mean[i])
			lnS += math.Log(s)
		}
	}
	return -0.5*float64(len(b.Mu))*gaussian.Ln2Pi - lnS - 0.5*sumZ
}

// floorTermInline is gaussian.FloorTerm over a pre-combined σ interval,
// small enough for the compiler to inline into the per-dimension loops.
func floorTermInline(muLo, muHi, csLo, csHi, x float64) (s, z float64) {
	m := muLo
	if x-muLo < muHi-x {
		m = muHi
	}
	d := x - m
	if d < 0 {
		d = -d
	}
	switch {
	case csHi <= d:
		return csLo, (x - m) / csLo
	case csLo >= d:
		return csHi, (x - m) / csHi
	default:
		za := (x - m) / csLo
		zb := (x - m) / csHi
		if -math.Log(csLo)-0.5*za*za <= -math.Log(csHi)-0.5*zb*zb {
			return csLo, za
		}
		return csHi, zb
	}
}

// LogHullFloorAt returns LogHullAt and LogFloorAt in a single pass: both
// bounds need the same per-dimension combined σ interval, so the pass shares
// the interval combination and accumulates both products side by side. Each
// product and each z² sum accumulate in exactly the order of the single-bound
// siblings and assemble the identical final expression, so the results are
// bit-identical to calling LogHullAt and LogFloorAt separately — the
// traversal's denominator bookkeeping relies on that.
func (b ParamBox) LogHullFloorAt(c gaussian.Combiner, q pfv.Vector) (hull, floor float64) {
	conv := c == gaussian.CombineConvolution
	hProd, hSumZ := 1.0, 0.0
	fProd, fSumZ := 1.0, 0.0
	for i := range b.Mu {
		var csLo, csHi float64
		if conv {
			csLo = math.Hypot(b.Sigma[i].Lo, q.Sigma[i])
			csHi = math.Hypot(b.Sigma[i].Hi, q.Sigma[i])
		} else {
			csLo = b.Sigma[i].Lo + q.Sigma[i]
			csHi = b.Sigma[i].Hi + q.Sigma[i]
		}
		x, muLo, muHi := q.Mean[i], b.Mu[i].Lo, b.Mu[i].Hi
		var hs, hz float64
		switch {
		case x < muLo:
			d := muLo - x
			switch {
			case d > csHi:
				hs, hz = csHi, (x-muLo)/csHi
			case d > csLo:
				hs, hSumZ = d, hSumZ+1
			default:
				hs, hz = csLo, (x-muLo)/csLo
			}
		case x <= muHi:
			hs = csLo
		default:
			d := x - muHi
			switch {
			case d < csLo:
				hs, hz = csLo, (x-muHi)/csLo
			case d < csHi:
				hs, hSumZ = d, hSumZ+1
			default:
				hs, hz = csHi, (x-muHi)/csHi
			}
		}
		hProd *= hs
		hSumZ += hz * hz
		fs, fz := floorTermInline(muLo, muHi, csLo, csHi, x)
		fProd *= fs
		fSumZ += fz * fz
	}
	hLn := math.Log(hProd)
	if math.IsInf(hLn, 0) {
		hLn = 0
		for i := range b.Mu {
			sig := c.CombineInterval(b.Sigma[i], q.Sigma[i])
			s, _, _ := gaussian.HullTerm(b.Mu[i], sig, q.Mean[i])
			hLn += math.Log(s)
		}
	}
	fLn := math.Log(fProd)
	if math.IsInf(fLn, 0) {
		fLn = 0
		for i := range b.Mu {
			sig := c.CombineInterval(b.Sigma[i], q.Sigma[i])
			s, _ := gaussian.FloorTerm(b.Mu[i], sig, q.Mean[i])
			fLn += math.Log(s)
		}
	}
	base := -0.5 * float64(len(b.Mu)) * gaussian.Ln2Pi
	return base - hLn - 0.5*hSumZ, base - fLn - 0.5*fSumZ
}

// AccessCost returns the split objective of §5.3 for the box: the product
// over dimensions of the per-dimension hull integrals ∫ˆN(x)dx. Each factor
// is ≥ 1 (see gaussian.HullIntegral), so the product is a monotone
// multivariate surrogate for the probability that an arbitrary query must
// access a node with this bounding box.
func (b ParamBox) AccessCost() float64 {
	cost := 1.0
	for i := range b.Mu {
		cost *= gaussian.HullIntegral(b.Mu[i], b.Sigma[i])
	}
	return cost
}

// LogAccessCost returns ln AccessCost, immune to overflow in high
// dimensionalities (27-dimensional boxes reach products near 1e66).
func (b ParamBox) LogAccessCost() float64 {
	cost := 0.0
	for i := range b.Mu {
		cost += math.Log(gaussian.HullIntegral(b.Mu[i], b.Sigma[i]))
	}
	return cost
}

// LogAccessCostWith returns ln AccessCost of the box extended by the
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
// an overflow/underflow-safe ordering-equivalent of Volume for
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

// LogVolumeWith returns the LogVolume of the box extended by the vector.
func (b ParamBox) LogVolumeWith(v pfv.Vector) float64 {
	out := 0.0
	for i := range b.Mu {
		out += math.Log(math.Max(b.Mu[i].Extend(v.Mean[i]).Width(), minWidth)) +
			math.Log(math.Max(b.Sigma[i].Extend(v.Sigma[i]).Width(), minWidth))
	}
	return out
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
