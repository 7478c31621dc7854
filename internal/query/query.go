// Package query defines the result types shared by every identification
// query engine in this repository (sequential scan, Gauss-tree, X-tree,
// VA-file), so that engines are interchangeable in the evaluation harness
// and their answers directly comparable.
package query

import (
	"cmp"
	"math"
	"slices"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// Result is one answer object of an identification query.
type Result struct {
	// Vector is the matching database object.
	Vector pfv.Vector
	// LogDensity is ln p(q|v), the (relative) joint log density of Lemma 1.
	LogDensity float64
	// Probability is the Bayesian identification probability P(v|q).
	// Engines that certify it only within an interval report the midpoint
	// here and the interval in ProbLow/ProbHigh.
	Probability float64
	// ProbLow and ProbHigh bound the true probability when the engine
	// terminated early using denominator bounds; ProbLow == ProbHigh when
	// the probability is exact.
	ProbLow, ProbHigh float64
}

// ProbInterval is the one place a joint log density and a certified
// log-space denominator interval [logLow, logHigh] become the reported
// probability interval [e^ld/high, e^ld/low], each end clamped to [0,1]. The
// NaN of 0/0 (−Inf − −Inf) carries no information and reports the
// conservative 1; an interval that rounding drift inverted is reordered.
func ProbInterval(logDensity, logLow, logHigh float64) (lo, hi float64) {
	lo = clamp01(math.Exp(logDensity - logHigh))
	hi = clamp01(math.Exp(logDensity - logLow))
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo, hi
}

func clamp01(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 1
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// Certified is the answer for v at joint log density logDensity against the
// denominator interval [logLow, logHigh]: its ProbInterval and the midpoint.
func Certified(v pfv.Vector, logDensity, logLow, logHigh float64) Result {
	lo, hi := ProbInterval(logDensity, logLow, logHigh)
	return Result{Vector: v, LogDensity: logDensity, Probability: (lo + hi) / 2, ProbLow: lo, ProbHigh: hi}
}

// SortByProbability orders results by descending probability, breaking ties
// by descending log density and then ascending object id for determinism.
func SortByProbability(rs []Result) {
	slices.SortStableFunc(rs, func(a, b Result) int {
		if a.Probability != b.Probability {
			return descending(a.Probability, b.Probability)
		}
		return byDensity(a, b)
	})
}

func byDensity(a, b Result) int {
	if a.LogDensity != b.LogDensity {
		return descending(a.LogDensity, b.LogDensity)
	}
	return cmp.Compare(a.Vector.ID, b.Vector.ID)
}

// descending compares for a descending order; a NaN ties with everything,
// as it does under the < and > these orders are defined by.
func descending(x, y float64) int {
	switch {
	case x > y:
		return -1
	case x < y:
		return 1
	}
	return 0
}

// NonNil maps a nil result slice to an empty one. Engines apply it on every
// successful return so "matched nothing" is always []Result{} — callers that
// serialize results (the JSON serving layer) then emit [] instead of null,
// and reflect-based comparisons never distinguish equivalent answers.
func NonNil(rs []Result) []Result {
	if rs == nil {
		return []Result{}
	}
	return rs
}

// IDs extracts the object ids of a result list, preserving order.
func IDs(rs []Result) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Vector.ID
	}
	return out
}

// ContainsID reports whether any result has the given object id.
func ContainsID(rs []Result, id uint64) bool {
	return slices.ContainsFunc(rs, func(r Result) bool { return r.Vector.ID == id })
}
