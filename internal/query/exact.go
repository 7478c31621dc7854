package query

import (
	"math"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/pqueue"
)

// Scored is one pass over the candidates of an exact-posterior engine — every
// stored vector for the sequential scan, the filter step's survivors for the
// X-tree: it calls yield once per candidate with the joint log density
// ln p(q|v). The Bayes denominator of the refinements below is the sum over
// exactly what a pass yields.
type Scored func(yield func(v pfv.Vector, logDensity float64)) error

// ExactKMLIQ refines a k-most-likely identification query in one pass: the k
// densest candidates in descending order, with exact posteriors when
// withProbs is set and NaN probabilities (a ranked query) otherwise.
func ExactKMLIQ(k int, withProbs bool, pass Scored) ([]Result, error) {
	top := pqueue.NewTopK[Result](k)
	var denom gaussian.LogSum
	nan := math.NaN()
	if err := pass(func(v pfv.Vector, ld float64) {
		if withProbs {
			denom.Add(ld)
		}
		top.Offer(Result{Vector: v, LogDensity: ld, Probability: nan, ProbLow: nan, ProbHigh: nan}, ld)
	}); err != nil {
		return nil, err
	}
	out := top.Sorted()
	if withProbs {
		logDenom := denom.Log()
		for i := range out {
			p := math.Exp(out[i].LogDensity - logDenom)
			out[i].Probability, out[i].ProbLow, out[i].ProbHigh = p, p, p
		}
	}
	return out, nil
}

// ExactTIQ refines a threshold identification query with the paper's two-pass
// algorithm: the first pass establishes the total relative probability mass,
// the second reports every candidate whose exact posterior reaches pTheta, in
// descending order of probability.
func ExactTIQ(pTheta float64, pass Scored) ([]Result, error) {
	var denom gaussian.LogSum
	if err := pass(func(_ pfv.Vector, ld float64) { denom.Add(ld) }); err != nil {
		return nil, err
	}
	logDenom := denom.Log()
	var out []Result
	if err := pass(func(v pfv.Vector, ld float64) {
		if p := math.Exp(ld - logDenom); p >= pTheta {
			out = append(out, Result{Vector: v, LogDensity: ld, Probability: p, ProbLow: p, ProbHigh: p})
		}
	}); err != nil {
		return nil, err
	}
	SortByProbability(out)
	return NonNil(out), nil
}
