package pfv

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"github.com/gauss-tree/gausstree/internal/gaussian"
)

// Columns is the columnar (structure-of-arrays) form of a batch of
// probabilistic feature vectors, the in-memory shape of a Gauss-tree leaf:
// object ids plus one contiguous float64 slice per dimension for means and
// sigmas, so batch density evaluation runs tight per-dimension loops over
// adjacent memory instead of hopping between per-vector slices. All float64
// columns of a batch are carved from one run, in the order a columnar page
// body stores them (AppendColumns), so DecodeColumns reads them in place.
//
// Alongside the raw parameters, Columns carries two derived families. Only
// the ranked screening path, the writer and the quantizer read them — a
// refined query never does — so each is computed by its first reader (safe
// on a shared batch) into a small array of its own:
//
//   - NegLnSigma()[j] = −ln ∏ᵢ σᵢⱼ, the σ-product term of the Definition-1
//     density; it upper-bounds the −ln ∏ᵢ(σᵢⱼ⊕σq,ᵢ) term of any joint
//     density (combining with a query uncertainty only grows every factor,
//     and both the running product and math.Log are monotone, so the
//     domination survives floating-point rounding), making it a per-vector
//     screening ingredient that costs no logarithm at query time. A decoder
//     whose page stores the terms reads them from the page instead
//     (DecodeColumns).
//   - SigmaRange(), the per-dimension σ extrema of the batch, from which a
//     traversal derives batch-wide combined-σ bounds with d logarithms per
//     leaf instead of d per vector.
//
// Columns are immutable once built (they back shared page-cache entries, and
// a decoded batch is a view of its page image) and must not be copied; build
// them with ColumnsOf, or NewColumns and fill.
type Columns struct {
	IDs []uint64
	// Mean[i][j] and Sigma[i][j] hold μᵢ and σᵢ of vector j (dimension-major).
	Mean  [][]float64
	Sigma [][]float64

	// params is the one run behind the columns: Mean[i][j] is
	// params[i·Len()+j], Sigma[i][j] is params[(Dim()+i)·Len()+j].
	params []float64
	// negLn holds the NegLnSigma terms: the page's own when it stores them,
	// else computed by negLnOnce. sigmaExt holds the Dim() σ minima, then the
	// Dim() maxima, computed by rangeOnce.
	negLn, sigmaExt      []float64
	negLnOnce, rangeOnce sync.Once
}

// inlineHeads column headers share the batch's own allocation: up to 10
// dimensions (the paper's DS2) cost no header object.
const inlineHeads = 20

type inlineColumns struct {
	Columns
	heads [inlineHeads][]float64
}

// NewColumns returns a batch of n vectors of the given dimensionality with
// zero ids and parameters, for the caller to fill in place before sharing it.
func NewColumns(dim, n int) *Columns {
	return columnsOver(dim, make([]uint64, n), make([]float64, 2*dim*n))
}

// columnsOver returns the batch whose ids and parameter run are the given
// slices; a run longer than 2·dim·len(ids) carries the NegLnSigma terms
// behind the Sigma columns.
func columnsOver(dim int, ids []uint64, params []float64) *Columns {
	var c *Columns
	var cols [][]float64
	if 2*dim <= inlineHeads {
		in := new(inlineColumns)
		c, cols = &in.Columns, in.heads[:2*dim]
	} else {
		c, cols = new(Columns), make([][]float64, 2*dim)
	}
	n := len(ids)
	end := 2 * dim * n
	c.IDs, c.params = ids, params[:end:end]
	if len(params) > end {
		c.negLn = params[end:]
	}
	c.Mean, c.Sigma = cols[:dim:dim], cols[dim:]
	for i := range cols {
		cols[i] = params[i*n : (i+1)*n : (i+1)*n]
	}
	return c
}

// ColumnsOf builds the columnar form of a row-major vector batch. All
// vectors must share the given dimensionality.
func ColumnsOf(vs []Vector, dim int) *Columns {
	c := NewColumns(dim, len(vs))
	for j, v := range vs {
		c.IDs[j] = v.ID
		for i := 0; i < dim; i++ {
			c.Mean[i][j] = v.Mean[i]
			c.Sigma[i][j] = v.Sigma[i]
		}
	}
	return c
}

// ColumnsSize returns the length of the columnar page body of n vectors of
// the given dimensionality: EncodedSize(dim) bytes per vector, plus 8 when
// the body carries the vector's NegLnSigma term.
func ColumnsSize(dim, n int, withNegLn bool) int {
	if withNegLn {
		return n * (EncodedSize(dim) + 8)
	}
	return n * EncodedSize(dim)
}

// AppendColumns appends the columnar page body of c to dst and returns the
// extended slice: the ids, then the Mean columns, the Sigma columns and,
// when withNegLn, the NegLnSigma terms, as little-endian 64-bit words. It is
// every page's vector layout — Gauss-tree leaves and sidecars, scan pages,
// X-tree data pages — behind each page's own header.
func AppendColumns(dst []byte, c *Columns, withNegLn bool) []byte {
	for _, id := range c.IDs {
		dst = binary.LittleEndian.AppendUint64(dst, id)
	}
	dst = appendFloats(dst, c.params)
	if withNegLn {
		dst = appendFloats(dst, c.NegLnSigma())
	}
	return dst
}

func appendFloats(dst []byte, xs []float64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// DecodeColumns decodes the columnar page body of n vectors of the given
// dimensionality at the front of src. The body stores ids and parameters in
// the order and width Columns holds them, so on a host that takes views
// (hostViews) the batch's ids, columns and stored NegLnSigma terms are views
// of src — which must therefore be an immutable page image — and decoding
// allocates only the batch's header; elsewhere they are copied out word by
// word. It derives nothing: the σ extrema and NegLnSigma terms the body does
// not carry wait for a reader.
func DecodeColumns(src []byte, dim, n int, withNegLn bool) (*Columns, error) {
	return decodeColumns(src, dim, n, withNegLn, hostViews)
}

// decodeColumns is DecodeColumns with the choice between views and the
// portable copy made by the caller.
func decodeColumns(src []byte, dim, n int, withNegLn, view bool) (*Columns, error) {
	need := ColumnsSize(dim, n, withNegLn)
	if len(src) < need {
		return nil, fmt.Errorf("pfv: columnar body truncated (%d bytes, need %d)", len(src), need)
	}
	np := need/8 - n
	if view && n > 0 {
		ids, params := viewLE64(src, n, np)
		return columnsOver(dim, ids, params), nil
	}
	ids, params := make([]uint64, n), make([]float64, np)
	loadLE64Portable(ids, params, src)
	return columnsOver(dim, ids, params), nil
}

// SigmaRange returns the per-dimension σ extrema of the batch, lo[i] and
// hi[i] over Sigma[i][·] (+Inf and −Inf for an empty batch), computing them
// on first use (safe for concurrent readers of a shared batch).
func (c *Columns) SigmaRange() (lo, hi []float64) {
	dim := c.Dim()
	c.rangeOnce.Do(func() {
		ext := make([]float64, 2*dim)
		mins, maxs := ext[:dim], ext[dim:]
		for i, si := range c.Sigma {
			mins[i], maxs[i] = math.Inf(1), math.Inf(-1)
			for _, s := range si {
				mins[i], maxs[i] = min(mins[i], s), max(maxs[i], s)
			}
		}
		c.sigmaExt = ext
	})
	return c.sigmaExt[:dim:dim], c.sigmaExt[dim:]
}

// NegLnSigma returns the per-vector terms −ln ∏ᵢ Sigma[i][j], computing them
// on first use (safe for concurrent readers of a shared batch) unless the
// batch's page stores them. The σ factors are multiplied in dimension order
// and one logarithm is taken of the product — the canonical shape an encoder
// that stores the terms and this computation must share, so stored and
// computed terms are bit-identical. Vectors whose σ product leaves the
// float64 range fall back to the per-dimension log sum.
func (c *Columns) NegLnSigma() []float64 {
	c.negLnOnce.Do(func() {
		if c.negLn != nil {
			return // the page's own terms
		}
		prod := make([]float64, c.Len()) // doubles as the σ-product accumulator
		for j := range prod {
			prod[j] = 1
		}
		for _, si := range c.Sigma {
			for j, s := range si {
				prod[j] *= s
			}
		}
		LogEach(prod)
		for j, ln := range prod {
			if math.IsInf(ln, 0) {
				ln = 0
				for i := range c.Sigma {
					ln += math.Log(c.Sigma[i][j])
				}
			}
			prod[j] = -ln
		}
		c.negLn = prod
	})
	return c.negLn
}

// Len returns the number of vectors in the batch.
func (c *Columns) Len() int { return len(c.IDs) }

// Dim returns the dimensionality of the batch.
func (c *Columns) Dim() int { return len(c.Mean) }

// Vector materializes vector j as a row-major Vector the caller owns.
func (c *Columns) Vector(j int) Vector {
	return c.vectorInto(j, make([]float64, 2*c.Dim()))
}

// vectorInto gathers vector j into row, which holds 2·Dim() values.
func (c *Columns) vectorInto(j int, row []float64) Vector {
	dim := c.Dim()
	v := Vector{ID: c.IDs[j], Mean: row[:dim:dim], Sigma: row[dim : 2*dim : 2*dim]}
	for i := 0; i < dim; i++ {
		v.Mean[i] = c.Mean[i][j]
		v.Sigma[i] = c.Sigma[i][j]
	}
	return v
}

// Vectors materializes the whole batch as row-major vectors over one fresh
// backing array.
func (c *Columns) Vectors() []Vector {
	out := make([]Vector, c.Len())
	rows := make([]float64, 2*c.Dim()*len(out))
	for j := range out {
		out[j] = c.vectorInto(j, rows[2*c.Dim()*j:])
	}
	return out
}

// Index returns the position of the first vector equal to v (id, means and
// sigmas), or -1.
func (c *Columns) Index(v Vector) int {
	if len(v.Mean) != c.Dim() {
		return -1
	}
next:
	for j, id := range c.IDs {
		if id != v.ID {
			continue
		}
		for i := range v.Mean {
			if c.Mean[i][j] != v.Mean[i] || c.Sigma[i][j] != v.Sigma[i] {
				continue next
			}
		}
		return j
	}
	return -1
}

// LogDensityAt returns ln p(q|vⱼ) for vector j of the batch straight from
// the columns, through the kernel LogDensity uses.
func (e *JointEvaluator) LogDensityAt(c *Columns, j int) float64 {
	n, dim := c.Len(), c.Dim()
	if dim != len(e.q.Mean) {
		panic("pfv: LogDensityAt dimension mismatch")
	}
	return e.logDensity(c.params[j:], c.params[dim*n+j:], n)
}

// ScoreColumns evaluates ln p(q|vⱼ) for every vector of the batch into
// out[0:c.Len()], the batch form of LogDensity. The loops run dimension-outer
// (one scoreStep per dimension): the combined σ product and the squared-z
// sum accumulate across dimensions with no transcendental call, and one
// final pass (LogEach) takes a single logarithm per vector.
//
// Results are bit-identical to LogDensity(c.Vector(j)): the same operations
// in the same order per vector, log-sum fallback included.
func (e *JointEvaluator) ScoreColumns(c *Columns, out []float64) {
	n := c.Len()
	dim := c.Dim()
	qm, qs := e.q.Mean, e.q.Sigma
	if dim != len(qm) {
		panic("pfv: ScoreColumns dimension mismatch")
	}
	out = out[:n] // accumulates Σ z² until the final pass
	if cap(e.prod) < n {
		e.prod = make([]float64, n)
	}
	prod := e.prod[:n]
	for j := range out {
		out[j] = 0
		prod[j] = 1
	}
	for i := 0; i < dim; i++ {
		scoreStep(hasAVX2, e.comb, qm[i], qs[i], c.Mean[i], c.Sigma[i], prod, out)
	}
	LogEach(prod)
	base := -0.5 * float64(dim) * gaussian.Ln2Pi
	for j := 0; j < n; j++ {
		lnS := prod[j]
		if math.IsInf(lnS, 0) {
			lnS = 0
			for i := 0; i < dim; i++ {
				lnS += math.Log(e.comb.Combine(c.Sigma[i][j], qs[i]))
			}
		}
		out[j] = base - lnS - 0.5*out[j]
	}
}

// UpperBoundColumns fills out[0:c.Len()] with a cheap, logarithm-free (per
// vector) upper bound of ln p(q|vⱼ):
//
//	ln p(q|vⱼ) = −d/2·ln 2π − ln ∏ᵢ(σᵢⱼ⊕σq,ᵢ) − ½ Σᵢ (μq,ᵢ−μᵢⱼ)²/(σᵢⱼ⊕σq,ᵢ)²
//	           ≤ −d/2·ln 2π + min(NegLnSigma[j], −ln ∏ᵢ(σ̌ᵢ⊕σq,ᵢ))
//	             − ½ Σᵢ (μq,ᵢ−μᵢⱼ)²/(σ̂ᵢ⊕σq,ᵢ)²
//
// using σᵢⱼ ≤ σᵢⱼ⊕σq,ᵢ factor-wise (the running product and math.Log are
// monotone, so the precomputed NegLnSigma dominates the σ-product term even
// under rounding) and the batch σ extrema σ̌ᵢ/σ̂ᵢ for the remaining terms.
// The bound costs one logarithm and d divisions per batch plus two
// multiplications per vector-dimension (plus, once per batch lifetime, the σ
// extrema and the NegLnSigma terms a batch did not come with). The
// benchmark's per-layer ledger times it; no query screens by it any more:
// scoring a whole leaf with ScoreColumns costs less than bounding it and
// scoring the survivors one at a time.
//
// scratch must have capacity ≥ c.Dim(); it is overwritten.
func (e *JointEvaluator) UpperBoundColumns(c *Columns, scratch, out []float64) {
	n := c.Len()
	dim := c.Dim()
	qm, qs := e.q.Mean, e.q.Sigma
	if dim != len(qm) {
		panic("pfv: UpperBoundColumns dimension mismatch")
	}
	invS2 := scratch[:dim]
	sigmaMin, sigmaMax := c.SigmaRange()
	prodLo := 1.0 // ∏ᵢ(σ̌ᵢ⊕σq,ᵢ)
	for i := 0; i < dim; i++ {
		sLo, sHi := e.comb.Combine(sigmaMin[i], qs[i]), e.comb.Combine(sigmaMax[i], qs[i])
		prodLo *= sLo
		invS2[i] = 1 / (sHi * sHi)
	}
	lnFloor := math.Log(prodLo)
	if math.IsInf(lnFloor, 0) {
		lnFloor = 0
		for i := 0; i < dim; i++ {
			lnFloor += math.Log(e.comb.Combine(sigmaMin[i], qs[i]))
		}
	}
	base := -0.5 * float64(dim) * gaussian.Ln2Pi
	out = out[:n]
	negLn := c.NegLnSigma()
	for j := range out {
		t := negLn[j]
		if -lnFloor < t {
			t = -lnFloor
		}
		out[j] = base + t
	}
	for i := 0; i < dim; i++ {
		mi := c.Mean[i][:n]
		qmi, w := qm[i], invS2[i]
		for j := 0; j < n; j++ {
			d := qmi - mi[j]
			out[j] -= 0.5 * (d * d * w)
		}
	}
}
