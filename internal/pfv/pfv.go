// Package pfv implements probabilistic feature vectors (pfv), the data model
// of the Gaussian uncertainty model (paper §3): a d-dimensional object whose
// i-th feature is an observed value μᵢ together with a standard deviation σᵢ
// expressing the measurement uncertainty of that observation. A pfv is
// therefore a d-variate axis-aligned Gaussian N(μ, diag(σ²)).
//
// The package provides construction and validation, multivariate log
// densities, the joint density p(q|v) of Lemma 1 and the Bayesian posterior
// P(v|q) used by both identification query types, plus binary and CSV codecs.
//
// Boxes.LogBounds bounds every filter's parameter boxes (Lemmas 2 and 3).
//
// The batch kernels — ScoreColumns, the hull/floor bound step (BoundsStep)
// and the logarithm of their σ products (LogEach) — have a Go body, the
// reference, and on amd64 an AVX2 body (kernels_amd64.s, four entries per
// instruction), chosen once at init from CPUID: AVX2 and YMM state enabled
// by the OS (XGETBV); nothing else chooses. Other hosts, CPUs without AVX2
// and the convolution combiner (math.Hypot) run the Go body. Each lane
// repeats its entry's Go operations in order with no FMA, so both give the
// same bits. A block whose floor needs Lemma 3's two-logarithm corner test
// hands those lanes back to Go, which finishes them before the next
// dimension. LogEach's lanes are $GOROOT/src/math/log_amd64.s.
package pfv

import (
	"errors"
	"fmt"
	"math"

	"github.com/gauss-tree/gausstree/internal/gaussian"
)

// Common validation errors.
var (
	ErrDimensionMismatch = errors.New("pfv: mean and sigma slices have different lengths")
	ErrEmpty             = errors.New("pfv: a probabilistic feature vector needs at least one dimension")
	ErrNotFinite         = errors.New("pfv: feature values must be finite")
)

// Vector is a probabilistic feature vector: an object identifier plus d
// (μᵢ, σᵢ) pairs. Mean and Sigma always have equal length; every σᵢ is
// strictly positive. Vectors are treated as immutable once constructed.
type Vector struct {
	// ID identifies the database object the observation belongs to.
	ID uint64
	// Mean holds the observed feature values μᵢ.
	Mean []float64
	// Sigma holds the per-feature standard deviations σᵢ.
	Sigma []float64
}

// New validates and constructs a probabilistic feature vector. The slices
// are retained, not copied; callers must not mutate them afterwards.
func New(id uint64, mean, sigma []float64) (Vector, error) {
	if len(mean) != len(sigma) {
		return Vector{}, fmt.Errorf("%w: %d means vs %d sigmas", ErrDimensionMismatch, len(mean), len(sigma))
	}
	if len(mean) == 0 {
		return Vector{}, ErrEmpty
	}
	for i, m := range mean {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return Vector{}, fmt.Errorf("%w: mean[%d] = %v", ErrNotFinite, i, m)
		}
		if err := gaussian.ValidateSigma(sigma[i]); err != nil {
			return Vector{}, fmt.Errorf("dimension %d: %w (got %v)", i, err, sigma[i])
		}
	}
	return Vector{ID: id, Mean: mean, Sigma: sigma}, nil
}

// MustNew is New but panics on invalid input; intended for tests, examples
// and generators whose inputs are correct by construction.
func MustNew(id uint64, mean, sigma []float64) Vector {
	v, err := New(id, mean, sigma)
	if err != nil {
		panic(err)
	}
	return v
}

// Dim returns the number of probabilistic features.
func (v Vector) Dim() int { return len(v.Mean) }

// Clone returns a deep copy of the vector.
func (v Vector) Clone() Vector {
	return Vector{
		ID:    v.ID,
		Mean:  append([]float64(nil), v.Mean...),
		Sigma: append([]float64(nil), v.Sigma...),
	}
}

// Equal reports whether two vectors have identical id, means and sigmas.
func (v Vector) Equal(w Vector) bool {
	if v.ID != w.ID || len(v.Mean) != len(w.Mean) {
		return false
	}
	for i := range v.Mean {
		if v.Mean[i] != w.Mean[i] || v.Sigma[i] != w.Sigma[i] {
			return false
		}
	}
	return true
}

// String renders a compact human-readable form.
func (v Vector) String() string {
	return fmt.Sprintf("pfv{id=%d d=%d}", v.ID, v.Dim())
}

// LogDensityAt returns ln p(x|v) = Σᵢ ln N(μᵢ,σᵢ)(xᵢ): the log density of
// the true feature vector x under the object's uncertainty model
// (Definition 1). It panics if len(x) differs from the vector's dimension.
func (v Vector) LogDensityAt(x []float64) float64 {
	if len(x) != len(v.Mean) {
		panic(fmt.Sprintf("pfv: LogDensityAt dimension mismatch: %d vs %d", len(x), len(v.Mean)))
	}
	sum := 0.0
	for i, xi := range x {
		sum += gaussian.LogPDF(v.Mean[i], v.Sigma[i], xi)
	}
	return sum
}

// JointLogDensity returns ln p(q|v) = Σᵢ ln N(μv,ᵢ, σv,ᵢ⊕σq,ᵢ)(μq,ᵢ), the
// d-dimensional joint probability density of Lemma 1 that the query pfv q
// and the database pfv v describe the same real-world object, under the
// given σ-combination rule. It panics on dimension mismatch.
func JointLogDensity(c gaussian.Combiner, v, q Vector) float64 {
	if len(v.Mean) != len(q.Mean) {
		panic(fmt.Sprintf("pfv: JointLogDensity dimension mismatch: %d vs %d", len(v.Mean), len(q.Mean)))
	}
	e := JointEvaluator{comb: c, q: q}
	return e.LogDensity(v)
}

// JointEvaluator is the per-query fast path of JointLogDensity: it fixes the
// query vector and σ-combination rule once, so scoring a candidate touches
// only the two mean/sigma slices. A traversal scores hundreds of leaf vectors
// against one query; constructing the evaluator once per query keeps that
// inner loop allocation-free.
//
// Densities are evaluated in product form: the combined σ factors are
// multiplied across dimensions and a single logarithm is taken of the
// product, instead of summing d per-dimension logarithms —
//
//	ln p(q|v) = −d/2·ln 2π − ln ∏ᵢ(σᵢ⊕σq,ᵢ) − ½ Σᵢ zᵢ²
//
// which removes d−1 logarithm calls per scored vector from the hot path.
// When the σ product leaves the normal float64 range (astronomically small
// or large sigmas in high dimensionalities), the logarithm of the product
// is recomputed as the sum of per-dimension logarithms instead, so the
// density stays finite whenever the true value is representable.
//
// JointLogDensity delegates to the evaluator, and the batch ScoreColumns
// reassembles exactly this expression shape in the same order, so all
// density paths are bit-identical by construction.
type JointEvaluator struct {
	comb gaussian.Combiner
	q    Vector
	// prod is ScoreColumns' σ-product scratch; capacity survives Reset so
	// pooled traversals stay allocation-free.
	prod []float64
}

// NewJointEvaluator returns an evaluator for scoring candidates against q.
func NewJointEvaluator(c gaussian.Combiner, q Vector) JointEvaluator {
	return JointEvaluator{comb: c, q: q}
}

// Reset re-targets a (possibly pooled) evaluator at a new query.
func (e *JointEvaluator) Reset(c gaussian.Combiner, q Vector) {
	e.comb, e.q = c, q
}

// LogDensity returns ln p(q|v) for a database vector v. It panics on
// dimension mismatch.
func (e *JointEvaluator) LogDensity(v Vector) float64 {
	if len(v.Mean) != len(e.q.Mean) {
		panic(fmt.Sprintf("pfv: JointEvaluator dimension mismatch: %d vs %d", len(v.Mean), len(e.q.Mean)))
	}
	return e.logDensity(v.Mean, v.Sigma, 1)
}

// logDensity evaluates ln p(q|v) for the vector whose i-th mean and sigma
// are mean[i·stride] and sigma[i·stride]: stride 1 reads a row-major Vector,
// stride Len() one vector of a Columns batch — one kernel, so the two are
// bit-identical by construction.
func (e *JointEvaluator) logDensity(mean, sigma []float64, stride int) float64 {
	qm, qs := e.q.Mean, e.q.Sigma
	prod, sumZ := 1.0, 0.0
	for i := range qm {
		s := e.comb.Combine(sigma[i*stride], qs[i])
		z := (qm[i] - mean[i*stride]) / s
		prod *= s
		sumZ += z * z
	}
	lnS := math.Log(prod)
	if math.IsInf(lnS, 0) {
		// The σ product left the float64 range; fall back to the log sum.
		lnS = 0
		for i := range qm {
			lnS += math.Log(e.comb.Combine(sigma[i*stride], qs[i]))
		}
	}
	return -0.5*float64(len(qm))*gaussian.Ln2Pi - lnS - 0.5*sumZ
}

// Posterior computes the Bayesian identification probabilities P(vᵢ|q) for a
// candidate-complete set of database vectors (paper §3.1): assuming uniform
// priors, P(vᵢ|q) = p(q|vᵢ) / Σ_w p(q|w). The returned slice is aligned with
// db. An empty db yields an empty slice.
func Posterior(c gaussian.Combiner, db []Vector, q Vector) []float64 {
	scores := make([]float64, len(db))
	for i, v := range db {
		scores[i] = JointLogDensity(c, v, q)
	}
	return gaussian.NormalizeLog(scores, scores)
}

// QuantileBox returns the per-dimension interval [μᵢ − z·σᵢ, μᵢ + z·σᵢ] that
// contains a fresh observation of each feature with probability coverage
// (e.g. 0.95), the hyper-rectangle approximation the paper's X-tree baseline
// indexes. lo and hi are filled and returned; they may be nil.
func (v Vector) QuantileBox(coverage float64, lo, hi []float64) ([]float64, []float64) {
	z := gaussian.StdQuantile(0.5 + coverage/2)
	if cap(lo) < v.Dim() {
		lo = make([]float64, v.Dim())
	}
	if cap(hi) < v.Dim() {
		hi = make([]float64, v.Dim())
	}
	lo, hi = lo[:v.Dim()], hi[:v.Dim()]
	for i := range v.Mean {
		lo[i] = v.Mean[i] - z*v.Sigma[i]
		hi[i] = v.Mean[i] + z*v.Sigma[i]
	}
	return lo, hi
}

// EuclideanDistance returns the plain Euclidean distance between the mean
// vectors of v and w, ignoring all uncertainty information. This is the
// conventional-feature-vector baseline the paper's Figure 6 compares against.
func EuclideanDistance(v, w Vector) float64 {
	if len(v.Mean) != len(w.Mean) {
		panic("pfv: EuclideanDistance dimension mismatch")
	}
	sum := 0.0
	for i := range v.Mean {
		d := v.Mean[i] - w.Mean[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
