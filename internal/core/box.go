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

// boxColumns holds n parameter boxes column-major in one backing array: for
// every feature dimension the four runs μ̌, μ̂, σ̌, σ̂, each n long — run
// 4·i+b is bound b of dimension i, the order the bounds have in an inner
// page's entry, so the node codec transposes by run index. It is the form
// the query path reads — a decoded inner node's child boxes and a quantized
// leaf's per-vector intervals — because the bound kernel runs dimension-
// outer, entry-inner over exactly these runs. The writer and the validators
// work on ParamBox values (box materializes one).
type boxColumns struct {
	n    int
	data []float64 // 4·dim runs of n
}

func newBoxColumns(dim, n int) boxColumns {
	return boxColumns{n: n, data: make([]float64, 4*dim*n)}
}

// boxColumnsOf transposes the child boxes of a writer's inner node.
func boxColumnsOf(children []childEntry, dim int) boxColumns {
	b := newBoxColumns(dim, len(children))
	for i := 0; i < dim; i++ {
		muLo, muHi, sgLo, sgHi := b.dim(i)
		for j := range children {
			mu, sg := children[j].box.Mu[i], children[j].box.Sigma[i]
			muLo[j], muHi[j], sgLo[j], sgHi[j] = mu.Lo, mu.Hi, sg.Lo, sg.Hi
		}
	}
	return b
}

// union returns the one box that bounds all n ≥ 1 of them.
func (b *boxColumns) union(dim int) boxColumns {
	u := newBoxColumns(dim, 1)
	for i := 0; i < dim; i++ {
		muLo, muHi, sgLo, sgHi := b.dim(i)
		u.data[4*i], u.data[4*i+1] = slices.Min(muLo), slices.Max(muHi)
		u.data[4*i+2], u.data[4*i+3] = slices.Min(sgLo), slices.Max(sgHi)
	}
	return u
}

// dim returns the four interval-bound runs of feature dimension i.
func (b *boxColumns) dim(i int) (muLo, muHi, sgLo, sgHi []float64) {
	n := b.n
	r := b.data[4*i*n : 4*(i+1)*n : 4*(i+1)*n]
	return r[:n:n], r[n : 2*n : 2*n], r[2*n : 3*n : 3*n], r[3*n:]
}

// box materializes entry j as a ParamBox of the given dimension.
func (b *boxColumns) box(j, dim int) ParamBox {
	ivs := make([]gaussian.Interval, 2*dim)
	out := ParamBox{Mu: ivs[:dim:dim], Sigma: ivs[dim:]}
	b.boxInto(j, out)
	return out
}

// boxInto overwrites dst, a box of the columns' dimension, with entry j.
func (b *boxColumns) boxInto(j int, dst ParamBox) {
	for i := range dst.Mu {
		muLo, muHi, sgLo, sgHi := b.dim(i)
		dst.Mu[i] = gaussian.Interval{Lo: muLo[j], Hi: muHi[j]}
		dst.Sigma[i] = gaussian.Interval{Lo: sgLo[j], Hi: sgHi[j]}
	}
}

// containsVector is ParamBox.ContainsVector of entry j.
func (b *boxColumns) containsVector(j int, v pfv.Vector) bool {
	for i := range v.Mean {
		muLo, muHi, sgLo, sgHi := b.dim(i)
		m, sg := v.Mean[i], v.Sigma[i]
		if !(muLo[j] <= m && m <= muHi[j] && sgLo[j] <= sg && sg <= sgHi[j]) {
			return false
		}
	}
	return true
}

// logBounds is the batch bound kernel of the best-first traversal (§5.2): it
// writes ln ˆN(q) of every box into hull and, unless floor is nil, ln ˇN(q)
// into floor — the maximum and minimum joint log density any pfv inside the
// box could have against the probabilistic query vector, with the σ intervals
// shifted by the query's uncertainty ("ˆN_{μ̌,μ̂,σ̌+σq,σ̂+σq}(μq)"). hull is a
// node's queue priority; with the subtree count, hull and floor bound the
// node's share of the Bayes denominator (n·ˇN ≤ Σ ≤ n·ˆN, §5.2.2).
//
// Both bounds run in product form, one pfv.BoundsStep per dimension and one
// logarithm of each product (logFallback steps in for a product that leaves
// the float64 range). Every entry accumulates in dimension order, so its
// bounds do not depend on the batch it shares: they equal, bit for bit, what
// gaussian.HullTerm and FloorTerm give one box at a time.
//
// zLim screens ranked traversals: hull ≤ hullCut − ½·Σz² for any box (see
// traversal.hullCut), so an entry whose Σz² reaches zLim = 2·(hullCut − bound)
// provably cannot beat the admission bound; it gets hull −Inf. +Inf screens
// nothing. prods is scratch of length 2·n.
func (b *boxColumns) logBounds(c gaussian.Combiner, q pfv.Vector, zLim float64, hull, floor, prods []float64) {
	n := b.n
	hull = hull[:n]
	hProd, fProd := prods[:n], prods[n:2*n]
	for j := range hull {
		hull[j], hProd[j] = 0, 1
	}
	for j := range floor {
		floor[j], fProd[j] = 0, 1
	}
	for i, x := range q.Mean {
		muLo, muHi, sgLo, sgHi := b.dim(i)
		pfv.BoundsStep(c, x, q.Sigma[i], muLo, muHi, sgLo, sgHi, hull, hProd, floor, fProd)
	}
	pfv.LogEach(prods[:n+len(floor)]) // hProd, then fProd if any
	base := -0.5 * float64(len(q.Mean)) * gaussian.Ln2Pi
	for j, sumZ := range hull {
		if sumZ >= zLim {
			hull[j] = math.Inf(-1)
			continue
		}
		lnS := hProd[j]
		if math.IsInf(lnS, 0) {
			lnS, _ = b.logFallback(c, q, j)
		}
		hull[j] = base - lnS - 0.5*sumZ
	}
	for j, sumZ := range floor {
		lnS := fProd[j]
		if math.IsInf(lnS, 0) {
			_, lnS = b.logFallback(c, q, j)
		}
		floor[j] = base - lnS - 0.5*sumZ
	}
}

// logFallback recomputes entry j's hull and floor σ-term logarithms as
// per-dimension sums, for a product that left the float64 range.
func (b *boxColumns) logFallback(c gaussian.Combiner, q pfv.Vector, j int) (hLn, fLn float64) {
	for i, x := range q.Mean {
		muLo, muHi, sgLo, sgHi := b.dim(i)
		mu := gaussian.Interval{Lo: muLo[j], Hi: muHi[j]}
		cs := c.CombineInterval(gaussian.Interval{Lo: sgLo[j], Hi: sgHi[j]}, q.Sigma[i])
		hs, _, _ := gaussian.HullTerm(mu, cs, x)
		hLn += math.Log(hs)
		fs, _ := gaussian.FloorTerm(mu, cs, x)
		fLn += math.Log(fs)
	}
	return hLn, fLn
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
