package core

import (
	"math"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/query"
)

// expSum is a sum of exponentials held in log space: Σ exp(xᵢ) =
// exp(ref)·sum. It is what a scaledAccum holds, and what a queued block keeps
// of its waiting children's mass (activeQueue).
type expSum struct{ ref, sum float64 }

// at returns the sum scaled to the reference ref: Σ exp(xᵢ − ref).
func (m expSum) at(ref float64) float64 {
	if m.sum <= 0 {
		return 0
	}
	return m.sum * math.Exp(m.ref-ref)
}

// scaledAccum maintains Σ exp(xᵢ) over a dynamic multiset of log-space terms
// and sums with O(1) add and swap, staying accurate across the enormous
// dynamic range of multi-dimensional Gaussian densities by carrying an
// explicit log-space reference exponent, the largest term added since the
// last reset (so the sum never rounds below it). A swap that cancels the sum
// down to rounding residue — losing every term the removed one had absorbed
// — marks the accumulator cancelled; the owner rebuilds it from the live
// terms (see denomTracker.maybeRebuild).
type scaledAccum struct {
	expSum            // ref: the log-space reference; sum: Σ exp(xᵢ − ref)
	peak      float64 // largest sum a swap has met since the last reset
	cancelled bool    // a swap left under cancelRatio of peak
}

// cancelRatio is the share of its peak below which a sum that has seen
// swaps is taken for rounding residue: terms were rounded to 2⁻⁵³·peak when
// added, so under 2⁻²⁰·peak at most 33 bits are left. On DS2 3-MLIQ: 5.5
// rebuilds a query, 1e-9 nats worst drift (2⁻³⁰: 4.5 rebuilds, 1e-6).
const cancelRatio = 1.0 / (1 << 20)

// add adds one term exp(x).
func (a *scaledAccum) add(x float64) { a.addSum(expSum{x, 1}) }

// addSum adds a sum held against its own reference.
func (a *scaledAccum) addSum(m expSum) {
	if m.sum <= 0 || math.IsInf(m.ref, -1) {
		return
	}
	if a.sum <= 0 {
		a.expSum, a.peak = m, 0
		return
	}
	switch d := m.ref - a.ref; {
	case d > 0:
		// Rebase: summed against a far lower reference, m − ref rounds at its
		// scale and the sum can fall under its largest term (a [1, 1] posterior).
		f := math.Exp(-d)
		a.sum, a.peak, a.ref = a.sum*f+m.sum, a.peak*f, m.ref
	case d < -40 && a.sum >= m.sum:
		// e^d·m < 2⁻⁵⁷·sum ≤ half an ulp of the sum: adding it would round
		// straight back to the same bits, so the Exp is skipped.
	default:
		a.sum += m.sum * math.Exp(d)
	}
}

// swap replaces old, a sum the accumulator holds, by new in one step: a
// block's mass moving from one suffix to the next (activeQueue.pop). Neither
// may exceed the reference, which every sum added since the last reset
// bounds.
func (a *scaledAccum) swap(old, new expSum) {
	if a.sum <= 0 {
		return
	}
	if a.sum > a.peak {
		a.peak = a.sum // sums only grow between swaps: this is the true peak
	}
	a.sum += new.at(a.ref) - old.at(a.ref)
	if a.sum < a.peak*cancelRatio {
		a.cancelled = true
		if a.sum < 0 {
			a.sum = 0
		}
	}
}

func (a *scaledAccum) log() float64 {
	if a.sum <= 0 {
		return math.Inf(-1)
	}
	return a.ref + math.Log(a.sum)
}

func (a *scaledAccum) reset() { *a = scaledAccum{} }

// denomTracker maintains the certified interval around the Bayes denominator
// Σ_w p(q|w) during a best-first traversal: the exact log-sum of all scored
// leaf objects plus, per §5.2.2, the floor/hull sum bounds of every subtree
// still waiting in the priority queue. Bounds are updated whenever a block
// is queued or popped from. Stop tests read the interval through fold, which
// is memoised: however many tests an expansion runs, the five accumulators
// are folded into log space once.
type denomTracker struct {
	exact   scaledAccum // Σ p(q|v) over individually scored objects; ref: the densest
	floorPQ scaledAccum // Σ n·ˇN over queued subtrees
	hullPQ  scaledAccum // Σ n·ˆN over queued subtrees

	// floorRes/hullRes hold the per-vector floor/hull sums of quantized
	// leaves the traversal skipped for good (their hulls proved they cannot
	// affect the result set). Unlike the queue bounds they are permanent:
	// their mass survives queue exhaustion (clearQueueBounds) and widens
	// the certified interval honestly. Add-only: no cancellation drift.
	floorRes scaledAccum
	hullRes  scaledAccum

	// memo is the last fold; folded says no mutation has happened since.
	// Every mutating method must clear folded.
	memo   denomBounds
	folded bool
}

// denomBounds is the tracker's state folded into log space: the three
// additive components (see DenomParts) and the certified denominator
// interval [exp(logLow), exp(logHigh)] they imply.
type denomBounds struct {
	parts           DenomParts
	logLow, logHigh float64
}

func (d *denomTracker) addExact(logDensity float64) {
	d.exact.add(logDensity)
	d.folded = false
}

// addResidual registers one skipped quantized-leaf vector's certified
// density bounds [ˇ, ˆ] with the permanent residue.
func (d *denomTracker) addResidual(logFloor, logHull float64) {
	d.floorRes.add(logFloor)
	d.hullRes.add(logHull)
	d.folded = false
}

// enter registers a new block's mass, the suffix of its best child.
func (d *denomTracker) enter(s suffix) {
	d.floorPQ.addSum(s.floor)
	d.hullPQ.addSum(s.hull)
	d.folded = false
}

// advance moves a block's mass from the suffix of its popped child to the
// suffix after it (zero: the block is spent).
func (d *denomTracker) advance(old, new suffix) {
	d.floorPQ.swap(old.floor, new.floor)
	d.hullPQ.swap(old.hull, new.hull)
	d.folded = false
}

// clearQueueBounds zeroes the floor/hull accumulators. Called when the
// active queue has drained: the true sums over zero subtrees are exactly
// zero, but the O(1)-remove accumulators may retain residue that would
// otherwise survive as phantom denominator mass.
func (d *denomTracker) clearQueueBounds() {
	d.floorPQ.reset()
	d.hullPQ.reset()
	d.folded = false
}

// maybeRebuild recomputes a queue-bound accumulator from the live blocks'
// suffixes when a pop cancelled it (see scaledAccum): best-first pops the
// dominant hull first, and the certified upper bound must not sink below the
// mass still queued. The traversal calls it after every expansion, before
// the next stop test.
func (d *denomTracker) maybeRebuild(q *activeQueue) {
	floor, hull := d.floorPQ.cancelled, d.hullPQ.cancelled
	if !floor && !hull {
		return
	}
	if floor {
		d.floorPQ.reset()
	}
	if hull {
		d.hullPQ.reset()
	}
	q.heap.Items(func(b int32, _ float64) {
		s := q.mass[q.blocks[b].next]
		if floor {
			d.floorPQ.addSum(s.floor)
		}
		if hull {
			d.hullPQ.addSum(s.hull)
		}
	})
	d.folded = false
}

// fold returns the tracker's current bounds, folding the accumulators only
// if something changed since the last call. The residue of skipped quantized
// leaves folds into the floor/hull parts, so cross-shard merges stay sound
// without knowing about quantization. An interval inverted by drift is
// reordered, as query.ProbInterval reorders what it reports.
func (d *denomTracker) fold() *denomBounds {
	if !d.folded {
		p := DenomParts{
			LogExact: d.exact.log(),
			LogFloor: logAddExp(d.floorPQ.log(), d.floorRes.log()),
			LogHull:  logAddExp(d.hullPQ.log(), d.hullRes.log()),
		}
		lo, hi := p.LogLow(), p.LogHigh()
		if hi < lo {
			lo, hi = hi, lo
		}
		d.memo, d.folded = denomBounds{parts: p, logLow: lo, logHigh: hi}, true
	}
	return &d.memo
}

// tooWide reports whether some reported probability interval may be wider
// than accuracy (≤ 0: nothing to certify). The unclamped width
// e^ld·(1/low − 1/high) is monotone in the density and clamping only shrinks
// reported intervals, so one test at the densest candidate, maxLd, certifies
// every candidate's width. logPeerLow (−Inf: none) is denominator mass
// certified elsewhere, part of both bounds.
func (b *denomBounds) tooWide(maxLd, accuracy, logPeerLow float64) bool {
	return accuracy > 0 && math.Exp(maxLd-logAddExp(b.logLow, logPeerLow))-math.Exp(maxLd-logAddExp(b.logHigh, logPeerLow)) > accuracy
}

// threshold is a TIQ probability threshold θ prepared for log-space tests.
type threshold struct {
	p, log float64 // θ and ln θ (−Inf for θ = 0)
}

// thresholdBand is how close, in nats, a log-space threshold test may come
// to the boundary before reaches falls back to the exact form; rounding in
// ld, the folded bound and ln θ moves the difference by ~1e-13 at most.
const thresholdBand = 1e-9

// reaches reports whether a log density reaches the threshold against a
// log-space denominator bound: the probability query.ProbInterval reports at
// that denominator is ≥ θ. Subtractions decide it; the exact form runs only
// within thresholdBand of the boundary and for the NaN of −Inf − −Inf (which
// reports the conservative 1), so log space changes no answer. Against
// logDenom = −Inf all reaches.
func (th threshold) reaches(ld, logDenom float64) bool {
	x := ld - logDenom
	switch d := x - th.log; {
	case d > thresholdBand:
		return true
	case d < -thresholdBand:
		return false
	}
	p, _ := query.ProbInterval(ld, logDenom, logDenom)
	return p >= th.p
}

// logAddExp returns ln(exp(a)+exp(b)) without overflow.
func logAddExp(a, b float64) float64 { return gaussian.LogAddExp(a, b) }
