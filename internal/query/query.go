// Package query defines the result types shared by every identification
// query engine in this repository (sequential scan, Gauss-tree, X-tree,
// VA-file), so that engines are interchangeable in the evaluation harness
// and their answers directly comparable.
package query

import (
	"cmp"
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

// SortByDensity orders results by descending joint log density, breaking
// ties by ascending object id — the order SortByProbability induces once a
// shared denominator turns densities into probabilities, usable when
// probabilities were not computed (ranked queries).
func SortByDensity(rs []Result) {
	slices.SortStableFunc(rs, byDensity)
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
	for _, r := range rs {
		if r.Vector.ID == id {
			return true
		}
	}
	return false
}
