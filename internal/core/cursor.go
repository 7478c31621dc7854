package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

// This file is the one driver of every query: a resumable cursor over the
// shared best-first traversal (executor.go). The ranked k-MLIQ is a cursor
// that tracks no denominator and answers log densities (Ranked); a
// probability query's cursor exposes the tree's denominator interval instead
// of finished probabilities.
//
// The Bayes denominator of P(v|q) = p(q|v) / Σ_w p(q|w) sums over the ENTIRE
// database, so a tree that holds one shard of the data can never finish a
// probability on its own; what it CAN certify, by the additive structure of
// §5.2.2's n·ˇN/n·ˆN sum bounds, is an interval around its own contribution
// to the denominator. A cursor runs the traversal up to a stop test, pauses,
// and hands out its candidates with exact joint log densities and its
// DenomParts; the coordinator (internal/shard) merges the parts of all
// trees, decides globally, and resumes the cursors with a stricter target
// while the merged interval is too wide. A tree that is the whole database
// is the one-part case: its cursor has no peers, stops on the paper's own
// condition (see Cursor), and one Refine answers the query — Tree.KMLIQ and
// Tree.TIQ are exactly that.

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

// ProbInterval converts a candidate's joint log density into the certified
// probability interval implied by this denominator interval.
func (p DenomParts) ProbInterval(logDensity float64) (lo, hi float64) {
	return query.ProbInterval(logDensity, p.LogLow(), p.LogHigh())
}

// Candidate is one result candidate of a paused cursor: a stored object,
// named by its place in a decoded leaf, with its exact joint log density
// ln p(q|v). Probabilities are deliberately absent — they require the merged
// global denominator — and so is the row-major vector: Results builds it for
// what a query returns. A Candidate is valid until its cursor is closed.
type Candidate struct {
	ref        vecRef
	LogDensity float64
}

// SortCandidates orders by descending log density, ties by ascending id —
// the same order query.SortByProbability induces once a shared denominator
// turns densities into probabilities.
func SortCandidates(cs []Candidate) {
	slices.SortFunc(cs, func(a, b Candidate) int {
		if c := cmp.Compare(b.LogDensity, a.LogDensity); c != 0 {
			return c
		}
		return cmp.Compare(a.ref.cols.IDs[a.ref.j], b.ref.cols.IDs[b.ref.j])
	})
}

// Ranked is the answer of a ranked query, which computes no probability
// values: the candidates best first with their joint log densities and NaN
// probabilities. The vectors are copies the caller owns.
func Ranked(cs []Candidate) []query.Result {
	SortCandidates(cs)
	out, nan := make([]query.Result, len(cs)), math.NaN()
	for i, c := range cs {
		out[i] = query.Result{Vector: c.ref.vector(), LogDensity: c.LogDensity, Probability: nan, ProbLow: nan, ProbHigh: nan}
	}
	return out
}

// Results is the one place candidates become certified answers: every
// candidate's density over the certified denominator interval of parts — the
// tree's own for a stand-alone query, the merged one for a sharded query — as
// a probability interval and its midpoint, best first. The vectors are copies
// the caller owns.
func Results(cs []Candidate, parts DenomParts) []query.Result {
	out := make([]query.Result, len(cs))
	logLow, logHigh := parts.LogLow(), parts.LogHigh()
	for i, c := range cs {
		out[i] = query.Certified(c.ref.vector(), c.LogDensity, logLow, logHigh)
	}
	query.SortByProbability(out)
	return out
}

// Peers is what the coordinator of a partitioned database tells one shard's
// cursor about the whole before it resumes, as of the last merge round. All
// three only grow over a query, so a stale value is still a valid bound; −Inf
// says nothing is known (NoPeers): all a whole database's cursor ever knows.
type Peers struct {
	// LogLow is the certified log lower bound of the OTHER shards'
	// denominator mass. Fed back, it prunes threshold candidates and
	// disqualifies subtrees earlier than a tree-local TIQ could.
	LogLow float64
	// LogKth is the k-th best log density gathered on any shard (−Inf: fewer
	// than k known). A k-MLIQ subtree whose hull cannot beat it holds no
	// member of the answer, so a far shard need not fill a top-k of its own.
	LogKth float64
	// LogMax is the log density of the densest candidate gathered on any
	// shard, whose interval is the widest the query will report.
	LogMax float64
}

// NoPeers is the Peers of a cursor that has been told nothing.
func NoPeers() Peers { return Peers{math.Inf(-1), math.Inf(-1), math.Inf(-1)} }

// collector is what a query type brings to the cursor: the candidates it
// keeps of the vectors the traversal scores, and when it may stop.
type collector interface {
	offer(r vecRef, ld float64)
	// admission returns the density a vector or subtree must beat to hold a
	// member of the answer, given what p says of the other shards (ok =
	// false: no such bound yet). It only grows over a query. A ranked
	// traversal screens children and leaf vectors by it; every traversal
	// skips a quantized leaf's sidecar by it.
	admission(p Peers) (bound float64, ok bool)
	// settled reports whether no unexplored subtree of tr can still hold a
	// member of the answer, given what p says of the other shards.
	settled(tr *traversal, p Peers) bool
	// done is the query type's stop test, run between expansions against
	// the traversal's queue and denominator bounds: settled, and what the
	// query reports is certified as far as this tree can certify it. alone
	// says there are no other shards, so the tree's bounds are the whole
	// denominator's and candidates can be certified here.
	done(tr *traversal, accuracy float64, p Peers, alone bool) bool
	// prune drops candidates that cannot qualify against the denominator
	// lower bound logLow.
	prune(logLow float64)
	len() int
	// appendTo appends the kept objects to dst in unspecified order.
	appendTo(dst []Candidate) []Candidate
	// release returns pooled state cleared: nothing pooled pins a leaf.
	release()
}

// Cursor is a resumable query traversal over one tree: a ranked k-MLIQ,
// which tracks no denominator, or a k-MLIQ or TIQ that certifies
// probabilities. Refine runs it until its collector's stop test holds and the
// unexplored hull mass is within a budget; Candidates, DenomParts and Bound
// expose the paused state for cross-tree merging.
//
// A cursor is opened over a whole database: it has no peers, and its stop
// test is the paper's own — for TIQ, Figure 5: no unexplored subtree can
// still qualify, the weakest candidate is certified against the upper
// denominator bound, and every width is within accuracy. AsShard makes it
// one of several: what the peers hold is unknown mass in every denominator,
// so no candidate can be certified locally, and a threshold cursor stops
// once no subtree can qualify, leaving certification to the coordinator's
// merged interval and the mass budget of the next Refine. A shard's cursor
// also starts one step earlier — its root queued, not expanded — so that to
// the coordinator a shard is §5.2.2's unexplored subtree one level up: bounded
// by its root box, and read only if those bounds leave something undecided.
type Cursor struct {
	tr       *traversal
	col      collector
	accuracy float64
	err      error
	// span names the trace span of each Refine; shard labels it (−1: not a
	// shard), and Refine's caller numbers it with the merge round.
	span  string
	shard int
}

func (t *Tree) openCursor(ctx context.Context, q pfv.Vector, col collector, trackDenom bool, accuracy float64, span string) *Cursor {
	return &Cursor{tr: t.newTraversal(ctx, q, trackDenom, col), col: col, accuracy: accuracy, span: span, shard: -1}
}

// AsShard tells the cursor, before its first Refine, that it serves shard i
// of a partitioned database: its denominator bounds cover one part only (see
// Cursor), its trace spans are named "<query>_refine" and labelled with shard
// and round, and its root is queued under the bounds of the pinned snapshot's
// root box — DenomParts are those bounds until a Refine reads the root. The
// box is the cursor's own snapshot's and no one else's: pruned with any other,
// a concurrent insert could put an object outside the box that skipped it.
func (c *Cursor) AsShard(i int) error {
	c.shard = i
	c.span += "_refine"
	return c.tr.queueRoot()
}

// Close returns the cursor's pooled traversal and collector state to the
// query pools and releases the cursor's snapshot pin. The cursor and its
// Candidates are unusable afterwards. Always close cursors: beyond keeping
// steady-state queries allocation-free, an unclosed cursor pins its
// snapshot epoch and blocks page reclamation for every later mutation.
func (c *Cursor) Close() {
	if c.tr == nil {
		return
	}
	c.tr.release()
	c.tr = nil
	c.col.release()
	c.col = nil
}

// Refine resumes the traversal until the collector's stop test holds against
// p (see collector.done) and the unexplored hull mass is at most
// exp(maxLogUnexplored); +Inf skips the budget. The stop test runs before
// every read, so a Refine it already holds for reads nothing. Calling Refine
// again with a smaller budget resumes exactly where the previous call paused;
// the coordinator computes the budget from whatever certification the merged
// denominator interval is still missing. round labels the trace span (the
// coordinator's merge round; ignored by a cursor that is no shard).
//
// After an error (including context cancellation) the cursor is dead and
// returns the same error from every subsequent Refine.
func (c *Cursor) Refine(round int, maxLogUnexplored float64, p Peers) error {
	if c.err != nil {
		return c.err
	}
	alone := c.shard < 0
	if !c.tr.trackDenom {
		c.tr.peers = p // see traversal.peers
	}
	sp := c.tr.traceBegin()
	c.err = c.tr.run(func() bool {
		// fold is memoised, and put off until a test needs the bounds.
		return c.col.done(c.tr, c.accuracy, p, alone) && c.tr.bounds().parts.LogHull <= maxLogUnexplored
	})
	if alone {
		round = -1
	}
	c.tr.traceEnd(sp, c.span, c.shard, round)
	return c.err
}

// Settled reports whether no unexplored subtree of this tree can still hold
// a member of the answer, given p: the half of the stop test a coordinator
// must see hold on every shard, since a shard it skipped ran none.
func (c *Cursor) Settled(p Peers) bool { return c.col.settled(c.tr, p) }

// Candidates appends the current candidates to dst in unspecified order,
// having dropped those that cannot qualify against the tree's own certified
// denominator lower bound combined with its peers' logPeerLow (a traversal
// that ran out of tree ends without a last stop test; this is that test's
// pruning against the final bounds). The cursor remains usable — the
// candidate set is read, not drained.
func (c *Cursor) Candidates(dst []Candidate, logPeerLow float64) []Candidate {
	c.col.prune(logAddExp(c.tr.bounds().logLow, logPeerLow))
	return c.col.appendTo(slices.Grow(dst, c.col.len()))
}

// DenomParts returns the tree's current certified denominator components.
func (c *Cursor) DenomParts() DenomParts { return c.tr.bounds().parts }

// Bound returns the hull priority ln ˆN(q) of the best unexplored subtree —
// of a shard's cursor before its first Refine, its root — which no object
// the cursor has yet to score exceeds; −Inf when nothing is queued.
func (c *Cursor) Bound() float64 {
	if next, ok := c.tr.active.peek(); ok {
		return next.prio
	}
	return math.Inf(-1)
}

// Exhausted reports whether the traversal has explored the whole tree (the
// denominator contribution is then exact and Refine can tighten no further).
func (c *Cursor) Exhausted() bool { return c.tr.started && c.tr.active.len() == 0 }

// Stats returns the query statistics accumulated over all Refine calls.
func (c *Cursor) Stats() query.Stats { return c.tr.finish(c.col.len()) }

// answer is the stand-alone query over an opened cursor: the tree is the
// whole database, so one Refine runs to the paper's stop condition and the
// tree's own denominator interval certifies the candidates — or, for a
// ranked query, they are answered by density alone.
func (c *Cursor) answer() ([]query.Result, query.Stats, error) {
	defer c.Close()
	if err := c.Refine(-1, math.Inf(1), NoPeers()); err != nil {
		return nil, c.Stats(), err
	}
	cs := c.Candidates(nil, math.Inf(-1))
	if !c.tr.trackDenom {
		return Ranked(cs), c.Stats(), nil
	}
	return Results(cs, c.DenomParts()), c.Stats(), nil
}
