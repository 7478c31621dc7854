package pfv

import (
	"math"

	"github.com/gauss-tree/gausstree/internal/gaussian"
)

// Boxes holds N parameter boxes column-major in one backing array: for every
// feature dimension the four runs μ̌, μ̂, σ̌, σ̂, each N long — run 4·i+b is
// bound b of dimension i, the order the bounds have in a Gauss-tree inner
// page's entry, so that node codec transposes by run index. It is the form
// every filter bounds: a decoded inner node's child boxes, a quantized leaf's
// per-vector intervals and a VA-file page's grid cells, because LogBounds
// runs dimension-outer, entry-inner over exactly these runs. Data may be
// longer than 4·dim·N: only its prefix is read, so one array serves blocks of
// any N up to its size.
type Boxes struct {
	N    int
	Data []float64 // 4·dim runs of N
}

// NewBoxes returns a zeroed block of n boxes of the given dimension.
func NewBoxes(dim, n int) Boxes {
	return Boxes{N: n, Data: make([]float64, 4*dim*n)}
}

// Dim returns the four interval-bound runs of feature dimension i.
func (b *Boxes) Dim(i int) (muLo, muHi, sgLo, sgHi []float64) {
	n := b.N
	r := b.Data[4*i*n : 4*(i+1)*n : 4*(i+1)*n]
	return r[:n:n], r[n : 2*n : 2*n], r[2*n : 3*n : 3*n], r[3*n:]
}

// LogBounds is the batch bound kernel of every filter (Lemmas 2 and 3): it
// writes ln ˆN(q) of every box into hull and, unless floor is nil, ln ˇN(q)
// into floor — the maximum and minimum joint log density any pfv inside the
// box could have against the probabilistic query vector, with the σ intervals
// shifted by the query's uncertainty ("ˆN_{μ̌,μ̂,σ̌+σq,σ̂+σq}(μq)"). In the
// Gauss-tree, hull is a node's queue priority and, with the subtree count,
// hull and floor bound the node's share of the Bayes denominator
// (n·ˇN ≤ Σ ≤ n·ˆN, §5.2.2); in the VA-file they bound an object from its
// grid cell.
//
// Both bounds run in product form, one BoundsStep per dimension and one
// logarithm of each product (logFallback steps in for a product that leaves
// the float64 range). Every entry accumulates in dimension order, so its
// bounds do not depend on the batch it shares: they equal, bit for bit, what
// gaussian.HullTerm and FloorTerm give one box at a time.
//
// zLim screens ranked traversals: an entry whose hull z²-sum reaches zLim
// gets hull −Inf (the Gauss-tree sets zLim so that such an entry provably
// cannot beat its admission bound). +Inf screens nothing. prods is scratch of
// length 2·N.
func (b *Boxes) LogBounds(c gaussian.Combiner, q Vector, zLim float64, hull, floor, prods []float64) {
	n := b.N
	hull = hull[:n]
	hProd, fProd := prods[:n], prods[n:2*n]
	for j := range hull {
		hull[j], hProd[j] = 0, 1
	}
	for j := range floor {
		floor[j], fProd[j] = 0, 1
	}
	for i, x := range q.Mean {
		muLo, muHi, sgLo, sgHi := b.Dim(i)
		BoundsStep(c, x, q.Sigma[i], muLo, muHi, sgLo, sgHi, hull, hProd, floor, fProd)
	}
	LogEach(prods[:n+len(floor)]) // hProd, then fProd if any
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
func (b *Boxes) logFallback(c gaussian.Combiner, q Vector, j int) (hLn, fLn float64) {
	for i, x := range q.Mean {
		muLo, muHi, sgLo, sgHi := b.Dim(i)
		mu := gaussian.Interval{Lo: muLo[j], Hi: muHi[j]}
		cs := c.CombineInterval(gaussian.Interval{Lo: sgLo[j], Hi: sgHi[j]}, q.Sigma[i])
		hs, _, _ := gaussian.HullTerm(mu, cs, x)
		hLn += math.Log(hs)
		fs, _ := gaussian.FloorTerm(mu, cs, x)
		fLn += math.Log(fs)
	}
	return hLn, fLn
}
