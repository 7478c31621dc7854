package query

import (
	"math"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/pqueue"
)

// Scored is one pass over the candidates of an exact-posterior engine — every
// stored vector for the sequential scan, the filter step's survivors for the
// X-tree: it calls yield once per candidate, vector j of a decoded page's
// columns, with the joint log density ln p(q|v). The Bayes denominator of
// the refinements below is the sum over exactly what a pass yields.
//
// The columns are the page cache's, shared and immutable: a refinement keeps
// (cols, j) while it needs a candidate and builds a fresh row-major vector
// only for what it returns, so no answer aliases an engine's pages.
type Scored func(yield func(cols *pfv.Columns, j int, logDensity float64)) error

// Hit is a scored candidate an engine holds while it refines: vector J of a
// page's columns (the page cache's, read only) and its joint log density.
type Hit struct {
	Cols       *pfv.Columns
	J          int
	LogDensity float64
}

// Result is the answer for h, with a fresh copy of its vector, at the
// probability p (exact, or NaN for a ranked answer).
func (h Hit) Result(p float64) Result {
	return Result{Vector: h.Cols.Vector(h.J), LogDensity: h.LogDensity, Probability: p, ProbLow: p, ProbHigh: p}
}

// ExactKMLIQ refines a k-most-likely identification query in one pass: the k
// densest candidates in descending order, with exact posteriors when
// withProbs is set and NaN probabilities (a ranked query) otherwise.
func ExactKMLIQ(k int, withProbs bool, pass Scored) ([]Result, error) {
	top := pqueue.NewTopK[Hit](k)
	var denom gaussian.LogSum
	if err := pass(func(cols *pfv.Columns, j int, ld float64) {
		if withProbs {
			denom.Add(ld)
		}
		top.Offer(Hit{cols, j, ld}, ld)
	}); err != nil {
		return nil, err
	}
	out := make([]Result, 0, top.Len())
	for _, h := range top.Sorted() {
		p := math.NaN()
		if withProbs {
			p = math.Exp(h.LogDensity - denom.Log())
		}
		out = append(out, h.Result(p))
	}
	return out, nil
}

// ExactTIQ refines a threshold identification query with the paper's two-pass
// algorithm: the first pass establishes the total relative probability mass,
// the second reports every candidate whose exact posterior reaches pTheta, in
// descending order of probability.
func ExactTIQ(pTheta float64, pass Scored) ([]Result, error) {
	var denom gaussian.LogSum
	if err := pass(func(_ *pfv.Columns, _ int, ld float64) { denom.Add(ld) }); err != nil {
		return nil, err
	}
	logDenom := denom.Log()
	var out []Result
	if err := pass(func(cols *pfv.Columns, j int, ld float64) {
		if p := math.Exp(ld - logDenom); p >= pTheta {
			out = append(out, Hit{cols, j, ld}.Result(p))
		}
	}); err != nil {
		return nil, err
	}
	SortByProbability(out)
	return NonNil(out), nil
}
