package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/pqueue"
	"github.com/gauss-tree/gausstree/internal/query"
)

// This file is the coordination surface of the sharded engine
// (internal/shard): resumable query cursors that expose the per-tree
// denominator interval instead of finished probabilities.
//
// The paper's identification probability P(v|q) = p(q|v) / Σ_w p(q|w) is a
// global quantity — the Bayes denominator sums over the ENTIRE database. A
// tree that holds only one shard of the data can therefore never finish a
// probability on its own; what it CAN certify, by the additive structure of
// §5.2.2's n·ˇN/n·ˆN sum bounds, is an interval around its own contribution
// to the denominator. A cursor runs the shared best-first traversal
// (executor.go) up to a caller-chosen certification target, pauses, and
// hands out (a) its candidates with exact joint log densities and (b) its
// DenomParts. The shard coordinator merges the parts of all trees by
// log-sum-exp, decides globally, and — when the merged interval is still too
// wide — resumes the cursors with a stricter target. Because exact sums and
// floor/hull bounds are additive across disjoint data partitions, the merged
// interval certifies merged probabilities exactly as one tree over the union
// of the data would.

// DenomParts are the log-space components of one tree's certified
// contribution to the global Bayes denominator Σ_w p(q|w):
//
//	LogExact — ln Σ p(q|v) over the objects the traversal scored exactly;
//	LogFloor — ln Σ n·ˇN(q) over its unexplored subtrees (lower bounds);
//	LogHull  — ln Σ n·ˆN(q) over its unexplored subtrees (upper bounds).
//
// The tree's denominator contribution provably lies in
// [exp(LogLow), exp(LogHigh)]. All three components are additive across
// disjoint trees (in linear space), which is what makes sharded
// probabilities exact: summing per-shard parts yields the same interval a
// single tree over the union would certify.
// LogHull doubles as the refinement currency of the shard coordinator: the
// interval's absolute gap high−low is at most the unexplored hull mass
// exp(LogHull), which shrinks monotonically as the traversal expands (a
// child's hull never exceeds its parent's, and scored leaf mass moves into
// LogExact) and reaches −Inf at exhaustion. "Expand until your unexplored
// mass is below T" is therefore achievable by every shard regardless of how
// much total mass it holds — unlike a relative-width target, which a shard
// with near-zero floor mass could only meet by exhausting itself.
type DenomParts struct {
	LogExact float64
	LogFloor float64
	LogHull  float64
}

// LogLow returns the log of the certified lower denominator bound.
func (p DenomParts) LogLow() float64 { return logAddExp(p.LogExact, p.LogFloor) }

// LogHigh returns the log of the certified upper denominator bound.
func (p DenomParts) LogHigh() float64 { return logAddExp(p.LogExact, p.LogHull) }

// LogGap is the multiplicative width of the certified denominator interval,
// ln(high/low). It is 0 when the traversal has exhausted the tree (the
// denominator is then known exactly, including the empty-tree case) and +Inf
// while no lower bound has been established yet.
func (p DenomParts) LogGap() float64 {
	hi, lo := p.LogHigh(), p.LogLow()
	if math.IsInf(hi, -1) {
		return 0 // nothing unexplored and nothing scored: exactly zero mass
	}
	if math.IsInf(lo, -1) {
		return math.Inf(1)
	}
	return hi - lo
}

// ProbInterval converts a candidate's joint log density into the certified
// probability interval implied by this denominator interval (see probInterval).
func (p DenomParts) ProbInterval(logDensity float64) (lo, hi float64) {
	return probInterval(logDensity, p.LogLow(), p.LogHigh())
}

// Candidate is one result candidate of a paused cursor: a database object
// (a copy the caller owns) with its exact joint log density ln p(q|v).
// Probabilities are deliberately absent — they require the merged global
// denominator.
type Candidate struct {
	Vector     pfv.Vector
	LogDensity float64
}

// SortCandidates orders by descending log density, ties by ascending id —
// the same order query.SortByProbability induces once a shared denominator
// turns densities into probabilities. It is the one canonical candidate
// order; the shard merge uses it so sharded and unsharded orderings can
// never diverge.
func SortCandidates(cs []Candidate) {
	slices.SortFunc(cs, func(a, b Candidate) int {
		if c := cmp.Compare(b.LogDensity, a.LogDensity); c != 0 {
			return c
		}
		return cmp.Compare(a.Vector.ID, b.Vector.ID)
	})
}

// KMLIQCursor is a resumable k-MLIQ traversal over one tree. Refine runs it
// until the local top-k ranking is determined and the tree's denominator
// interval is certified to a target width; Candidates and DenomParts expose
// the paused state for cross-tree merging.
type KMLIQCursor struct {
	tr  *traversal
	top *pqueue.TopK[vecRef]
	err error
	// shard labels this cursor's trace spans (-1 when standalone); refines
	// numbers Refine calls from 1 so spans line up with merge rounds.
	shard   int
	refines int
}

// NewKMLIQCursor starts a resumable k-MLIQ traversal. No pages are read
// until the first Refine.
func (t *Tree) NewKMLIQCursor(ctx context.Context, q pfv.Vector, k int) (*KMLIQCursor, error) {
	if err := t.checkQuery(q, k); err != nil {
		return nil, err
	}
	top := acquireTopK(k)
	tr := t.newTraversal(ctx, q, true, func(r vecRef, ld float64) {
		top.Offer(r, ld)
	})
	return &KMLIQCursor{tr: tr, top: top, shard: -1}, nil
}

// TraceShard labels the cursor's trace spans with the shard index it
// serves, so a sharded query's slow-query log attributes pages and time per
// shard. No-op on untraced queries.
func (c *KMLIQCursor) TraceShard(i int) { c.shard = i }

// Close returns the cursor's pooled traversal and collector state to the
// query pools and releases the cursor's snapshot pin. The cursor is
// unusable afterwards. Always close cursors: beyond keeping steady-state
// sharded queries allocation-free, an unclosed cursor pins its snapshot
// epoch and blocks page reclamation for every later mutation.
func (c *KMLIQCursor) Close() {
	if c.tr == nil {
		return
	}
	c.tr.release()
	c.tr = nil
	releaseTopK(c.top)
	c.top = nil
}

// Refine resumes the traversal until (a) the local top-k set is determined
// and every local candidate's probability interval against the LOCAL
// denominator is within accuracy — the exact §5.2.2 stop condition a
// stand-alone tree would use, so the first round costs what an unsharded
// query costs — and (b) the unexplored hull mass is at most
// exp(maxLogUnexplored) (+Inf skips the condition). Calling Refine again
// with a smaller mass target resumes exactly where the previous call
// paused; the coordinator computes the target from whatever certification
// the merged denominator interval is still missing. After an error
// (including context cancellation) the cursor is dead and returns the same
// error from every subsequent Refine.
func (c *KMLIQCursor) Refine(accuracy, maxLogUnexplored float64) error {
	if c.err != nil {
		return c.err
	}
	c.refines++
	sp := c.tr.traceBegin()
	c.err = c.tr.run(func() bool {
		return mliqDone(c.top, c.tr, accuracy) && c.tr.denom.fold().parts.LogHull <= maxLogUnexplored
	})
	c.tr.traceEnd(sp, "kmliq_refine", c.shard, c.refines)
	return c.err
}

// Candidates returns the current local top-k, best first. The cursor remains
// usable — the candidate heap is copied, not drained.
func (c *KMLIQCursor) Candidates() []Candidate {
	out := make([]Candidate, 0, c.top.Len())
	c.top.Items(func(r vecRef, ld float64) {
		out = append(out, Candidate{Vector: r.vector(), LogDensity: ld})
	})
	SortCandidates(out)
	return out
}

// DenomParts returns the tree's current certified denominator components.
func (c *KMLIQCursor) DenomParts() DenomParts { return c.tr.denom.fold().parts }

// Exhausted reports whether the traversal has explored the whole tree (the
// denominator contribution is then exact and Refine can tighten no further).
func (c *KMLIQCursor) Exhausted() bool { return c.tr.started && c.tr.active.Len() == 0 }

// Stats returns the query statistics accumulated over all Refine calls.
func (c *KMLIQCursor) Stats() query.Stats { return c.tr.finish(c.top.Len()) }

// TIQCursor is a resumable threshold identification traversal over one
// tree. It retains every candidate that could still reach the threshold
// against the combined (local + external) denominator lower bound; the
// in/out decisions belong to the coordinator and its merged interval.
type TIQCursor struct {
	tr  *traversal
	col *tiqCollector
	err error
	// shard / refines: trace span attribution, as on KMLIQCursor.
	shard   int
	refines int
}

// NewTIQCursor starts a resumable TIQ traversal. No pages are read until the
// first Refine.
func (t *Tree) NewTIQCursor(ctx context.Context, q pfv.Vector, pTheta float64) (*TIQCursor, error) {
	col, err := t.newTIQCollector(q, pTheta)
	if err != nil {
		return nil, err
	}
	return &TIQCursor{tr: t.newTraversal(ctx, q, true, col.offer), col: col, shard: -1}, nil
}

// TraceShard labels the cursor's trace spans with the shard index it
// serves; see KMLIQCursor.TraceShard.
func (c *TIQCursor) TraceShard(i int) { c.shard = i }

// Close returns the cursor's pooled traversal and candidate state to the
// query pools. The cursor is unusable afterwards; see KMLIQCursor.Close.
func (c *TIQCursor) Close() {
	if c.tr == nil {
		return
	}
	c.tr.release()
	c.tr = nil
	c.col.release()
	c.col = nil
}

// Refine resumes the traversal until no unexplored subtree can hold an
// object that still reaches the threshold against the combined denominator
// lower bound, and the unexplored hull mass is at most exp(maxLogUnexplored)
// (+Inf skips the condition: the stand-alone TIQ cost on the first round).
//
// logExternalLow is the certified log lower bound of every OTHER shard's
// denominator contribution (−Inf when unknown). Because per-shard lower
// bounds only grow, a bound taken from a previous merge round is still
// valid, and feeding it back both prunes candidates and disqualifies
// subtrees earlier than a tree-local TIQ could. The combined bound is
// monotone too, so dropped candidates are final (see tiqCollector).
func (c *TIQCursor) Refine(maxLogUnexplored, logExternalLow float64) error {
	if c.err != nil {
		return c.err
	}
	c.refines++
	sp := c.tr.traceBegin()
	defer func() { c.tr.traceEnd(sp, "tiq_refine", c.shard, c.refines) }()
	c.err = c.tr.run(func() bool {
		b := c.tr.denom.fold()
		return c.col.settled(c.tr, logAddExp(b.logLow, logExternalLow)) && b.parts.LogHull <= maxLogUnexplored
	})
	return c.err
}

// Candidates returns the surviving candidates, best first. The cursor
// remains usable — the candidate set is copied, not drained.
func (c *TIQCursor) Candidates() []Candidate {
	out := make([]Candidate, 0, c.col.candidates.Len())
	c.col.candidates.Items(func(r vecRef, ld float64) {
		out = append(out, Candidate{Vector: r.vector(), LogDensity: ld})
	})
	SortCandidates(out)
	return out
}

// Prune applies the threshold filter against an up-to-date combined
// denominator lower bound (local LogLow merged with the other shards').
func (c *TIQCursor) Prune(logCombinedLow float64) { c.col.prune(logCombinedLow) }

// DenomParts returns the tree's current certified denominator components.
func (c *TIQCursor) DenomParts() DenomParts { return c.tr.denom.fold().parts }

// Exhausted reports whether the traversal has explored the whole tree.
func (c *TIQCursor) Exhausted() bool { return c.tr.started && c.tr.active.Len() == 0 }

// Stats returns the query statistics accumulated over all Refine calls.
func (c *TIQCursor) Stats() query.Stats { return c.tr.finish(c.col.candidates.Len()) }
