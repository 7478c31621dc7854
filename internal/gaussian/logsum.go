package gaussian

import "math"

// LogSum is a streaming log-sum-exp accumulator: it maintains
// ln Σᵢ exp(xᵢ) for a sequence of log-space terms xᵢ without ever leaving
// log space, so Bayes denominators Σ_w p(q|w) can be evaluated for
// arbitrarily small densities (e.g. 27-dimensional products) that would
// underflow a linear-space sum.
//
// The zero value is an empty sum (logically ln 0 = −Inf) and is ready to use.
type LogSum struct {
	max float64 // running maximum exponent
	sum float64 // Σ exp(xᵢ − max)
	n   int
}

// Add accumulates one log-space term. A term more than 40 below the running
// maximum is counted without its Exp: the sum is ≥ 1 once begun and
// e^−40 < 2⁻⁵⁷ is under half its ulp, so adding it would round straight back
// to the same bits (core's scaledAccum skips by the same rule).
func (s *LogSum) Add(logX float64) {
	if math.IsInf(logX, -1) {
		return // exp(−Inf) = 0 contributes nothing
	}
	if s.n == 0 || logX > s.max {
		if s.n == 0 {
			s.sum = 1
		} else {
			s.sum = s.sum*math.Exp(s.max-logX) + 1
		}
		s.max = logX
	} else if d := logX - s.max; !(d < -40) { // a NaN d still poisons the sum
		s.sum += math.Exp(d)
	}
	s.n++
}

// Log returns ln Σ exp(xᵢ), or −Inf if nothing was added.
func (s *LogSum) Log() float64 {
	if s.n == 0 {
		return math.Inf(-1)
	}
	return s.max + math.Log(s.sum)
}

// Reset empties the accumulator.
func (s *LogSum) Reset() { *s = LogSum{} }

// LogAddExp returns ln(exp(a)+exp(b)) without overflow or allocation — the
// two-term special case of LogSumExpSlice.
func LogAddExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// LogSumExpSlice returns ln Σ exp(xs[i]) computed in one pass over the slice;
// it returns −Inf for an empty slice.
func LogSumExpSlice(xs []float64) float64 {
	maxX := math.Inf(-1)
	for _, x := range xs {
		if x > maxX {
			maxX = x
		}
	}
	if math.IsInf(maxX, -1) {
		return maxX
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Exp(x - maxX)
	}
	return maxX + math.Log(sum)
}

// NormalizeLog converts log-space scores into probabilities that sum to 1:
// pᵢ = exp(xᵢ − logSumExp(xs)). It writes into dst if it has sufficient
// capacity and returns the slice of probabilities. An empty input returns
// an empty slice.
func NormalizeLog(dst, xs []float64) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	total := LogSumExpSlice(xs)
	if math.IsInf(total, -1) {
		// All scores are −Inf: maximal indifference, uniform posterior.
		for i := range dst {
			dst[i] = 1 / float64(len(xs))
		}
		return dst
	}
	for i, x := range xs {
		dst[i] = math.Exp(x - total)
	}
	return dst
}
