package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/pqueue"
	"github.com/gauss-tree/gausstree/internal/query"
)

var _ query.Engine = (*Tree)(nil)

// traversal is the reusable best-first executor shared by every Gauss-tree
// query (§5.2): an active queue ordered by the hull priority ˆN(q),
// node reads charged to a per-query counter, leaf/inner dispatch into a
// candidate collector, optional Bayes-denominator interval tracking
// (§5.2.2), and a pluggable stop condition. Every query is a Cursor
// (cursor.go) over this one loop — the ranked k-MLIQ without denominator
// tracking, the probability queries with it — and its collector is all that
// differs: what it keeps, what it admits and when it stops.
//
// Traversals are pooled: newTraversal acquires and release returns the state
// (the active queue's backing arrays, the denominator accumulators, the page
// counter), so a steady-state hot query performs no traversal allocations.
type traversal struct {
	tree *Tree
	// snap is the immutable tree state this traversal reads; pin protects
	// its pages and the images its nodes view (released on release).
	// Queries therefore run entirely against the snapshot published when
	// they started, concurrent mutations notwithstanding.
	snap       *treeSnap
	pin        pagefile.Pin
	ctx        context.Context
	q          pfv.Vector
	eval       pfv.JointEvaluator // per-query fast path of JointLogDensity
	active     activeQueue
	denom      denomTracker
	trackDenom bool
	counter    pagefile.Counter
	stats      query.Stats
	started    bool // root expanded; run() may be called again to resume
	// trace is the query's obs trace, captured from the context at
	// construction; nil (the common case) makes every span call a no-op.
	trace *obs.Trace
	// col receives every exactly scored leaf object.
	col collector
	// peers is what col's admission bound is taken against: for a ranked
	// traversal the peers of the current Refine, for a certifying one always
	// NoPeers — its quantized leaves skip their sidecars against its own heap
	// only, since a skipped leaf's residue widens the merged interval.
	peers Peers

	// hullCut = −d/2·ln2π − ln ∏ᵢ σq,ᵢ upper-bounds every hull priority with
	// the z² term dropped: σᵢ⊕σq,ᵢ ≥ σq,ᵢ factor-wise, so
	// hull ≤ hullCut − ½·Σz² for any box. Ranked expansions use it to derive
	// the z²-sum screen of pfv.Boxes.LogBounds.
	hullCut float64

	// scores is the reusable batch-scoring scratch buffer; its capacity
	// survives release so steady-state hot queries stay allocation-free.
	scores []float64
}

// vecRef names a stored vector by its position in a decoded leaf's columns.
// The traversal hands its collectors these: holding one copies nothing (it
// pins the leaf's columns while the query keeps it), and a row-major vector
// is built only for what a query returns.
type vecRef struct {
	cols *pfv.Columns
	j    int
}

// vector returns a fresh copy: no query result aliases the page cache.
func (r vecRef) vector() pfv.Vector { return r.cols.Vector(r.j) }

var traversalPool = sync.Pool{
	New: func() any {
		return &traversal{active: activeQueue{heap: pqueue.NewMax[int32]()}}
	},
}

func (t *Tree) newTraversal(ctx context.Context, q pfv.Vector, trackDenom bool, col collector) *traversal {
	tr := traversalPool.Get().(*traversal)
	tr.tree = t
	tr.snap, tr.pin = t.pinSnap()
	tr.ctx = ctx
	tr.q = q
	tr.eval.Reset(t.cfg.Combiner, q)
	tr.trackDenom = trackDenom
	if trackDenom {
		tr.active.denom, tr.active.deferred = &tr.denom, true
	}
	tr.col = col
	tr.peers = NoPeers()
	tr.trace = obs.TraceFrom(ctx)
	prodQS := 1.0
	for _, s := range q.Sigma {
		prodQS *= s
	}
	lnQS := math.Log(prodQS)
	if math.IsInf(lnQS, 0) {
		lnQS = 0
		for _, s := range q.Sigma {
			lnQS += math.Log(s)
		}
	}
	tr.hullCut = -0.5*float64(len(q.Sigma))*gaussian.Ln2Pi - lnQS
	return tr
}

// release resets the traversal (dropping every reference so pooled state
// cannot retain queries or trees) and returns it to the pool. The caller
// must have extracted stats via finish first and must not touch the
// traversal afterwards.
func (tr *traversal) release() {
	if tr.tree != nil {
		tr.tree.mgr.UnpinEpoch(tr.pin)
	}
	tr.tree = nil
	tr.snap = nil
	tr.pin = pagefile.Pin{}
	tr.ctx = nil
	tr.q = pfv.Vector{}
	tr.eval.Reset(0, pfv.Vector{})
	tr.active.Clear()
	tr.denom = denomTracker{}
	tr.counter.Reset()
	tr.stats = query.Stats{}
	tr.started = false
	tr.trackDenom = false
	tr.col = nil
	tr.trace = nil
	traversalPool.Put(tr)
}

// run executes the best-first loop: it expands the root (on the first call),
// then repeatedly evaluates the stop condition and expands the
// highest-priority subtree. done is checked between expansions, so it
// observes a consistent queue and denominator state. The context is checked
// before every node read; a cancellation surfaces as ctx.Err() with the
// stats accumulated so far.
//
// run may be called again with a stricter stop condition to resume the
// traversal exactly where it paused — Cursor.Refine relies on this.
func (tr *traversal) run(done func() bool) error {
	if !tr.started {
		tr.started = true
		if tr.snap.count > 0 { // an empty tree answers without reading its root
			if err := tr.expand(tr.snap.root); err != nil {
				return err
			}
		}
	}
	for tr.active.len() > 0 && !done() {
		if err := tr.expand(tr.active.pop().page); err != nil {
			return err
		}
		if tr.trackDenom {
			tr.denom.maybeRebuild(&tr.active)
		}
	}
	if tr.trackDenom && tr.active.len() == 0 {
		// The tree is exhausted: the denominator is exactly the sum of the
		// scored densities. Drop the accumulators' cancellation residue so
		// the certified interval collapses to a point.
		tr.denom.clearQueueBounds()
	}
	tr.stats.EarlyTermination = tr.active.len() > 0
	return nil
}

// queueRoot starts the traversal one step short of run's: the root goes on
// the queue as a block of one under the hull priority — and, when the
// denominator is tracked, the n·ˇN/n·ˆN sum bounds — of the snapshot's root
// box (treeSnap.box), as the child entry of a parent node would put it
// there, and no page is read.
func (tr *traversal) queueRoot() error {
	tr.started = true
	box, err := tr.tree.rootBox(tr.snap, tr.pin)
	if box == nil {
		return err // or nil: nothing stored, nothing to queue
	}
	hulls, floors := tr.logBounds(box, math.Inf(1))
	root := [1]childEntry{{page: tr.snap.root, count: tr.snap.count, logCount: math.Log(float64(tr.snap.count))}}
	tr.active.push(root[:], hulls, floors, false)
	return nil
}

// expand loads one queued subtree root. Leaf objects are scored exactly
// (feeding both the candidate collector and the exact denominator part);
// inner children are queued as one block under their hull priorities, which
// registers their sum bounds with the denominator tracker. The hot path is
// allocation-free: node reads hit the page cache's decoded forms, densities
// go through the per-query evaluator, one kernel call bounds all children of
// a node into the traversal's scratch, and the subtree-count logarithms of
// the §5.2.2 sum bounds are precomputed on the node (childEntry.logCount).
func (tr *traversal) expand(page pagefile.PageID) error {
	if err := tr.ctx.Err(); err != nil {
		return err
	}
	n, err := tr.tree.readNodeCounted(page, &tr.counter, tr.pin)
	if err != nil {
		return err
	}
	tr.stats.NodesVisited++
	if n.leaf {
		if n.quant != nil {
			return tr.expandQuantLeaf(n)
		}
		tr.scoreExactLeaf(n)
		return nil
	}
	screened, zLim := false, math.Inf(1)
	if !tr.trackDenom {
		if bound, ok := tr.col.admission(tr.peers); ok {
			// A child whose hull cannot beat the (monotone) admission bound
			// will never be expanded — the stop condition fires before the
			// best-first loop reaches it — so it need not be pushed at all.
			screened, zLim = true, 2*(tr.hullCut-bound)
		}
	}
	hulls, floors := tr.logBounds(&n.boxes, zLim)
	tr.active.push(n.children, hulls, floors, screened)
	return nil
}

// bounds returns the certified denominator bounds (denomTracker.fold),
// first building the queue sums the active queue deferred until a test read
// them: a k-MLIQ settles its k best before it asks.
func (tr *traversal) bounds() *denomBounds {
	if tr.active.deferred {
		tr.active.settle()
	}
	return tr.denom.fold()
}

// logBounds runs the batch bound kernel over the boxes into the traversal's
// scratch: every box's log hull and, when the query tracks the denominator,
// its log floor (nil otherwise). Both are valid until the scratch's next use.
func (tr *traversal) logBounds(boxes *pfv.Boxes, zLim float64) (hulls, floors []float64) {
	n := boxes.N
	tr.scores = growFloats(tr.scores, 4*n)
	hulls = tr.scores[:n]
	if tr.trackDenom {
		floors = tr.scores[n : 2*n]
	}
	boxes.LogBounds(tr.tree.cfg.Combiner, tr.q, zLim, hulls, floors, tr.scores[2*n:])
	return hulls, floors
}

// scoreExactLeaf scores every vector of one exact leaf through the columnar
// batch evaluator, ScoreColumns — bit-identical, in the same order, to the
// scalar per-vector loop — and feeds each density to the denominator and
// the collector. Ranked queries score the whole leaf too: screening vectors
// by a per-vector upper bound first and scoring the survivors one at a time
// cost more than it spared.
func (tr *traversal) scoreExactLeaf(n *node) {
	cols := n.cols
	nv := cols.Len()
	tr.scores = growFloats(tr.scores, nv)
	tr.eval.ScoreColumns(cols, tr.scores)
	tr.stats.VectorsScored += nv
	for j, ld := range tr.scores[:nv] {
		if tr.trackDenom {
			tr.denom.addExact(ld)
		}
		tr.col.offer(vecRef{cols, j}, ld)
	}
}

// expandQuantLeaf handles a quantized leaf: per-vector certified density
// bounds [ˇ, ˆ] are assembled from the widened parameter intervals (Lemma
// 2/3 per vector instead of per node), and the exact sidecar page is read —
// and charged — only when some vector could still beat the collector's
// admission bound. Skipped leaves contribute their floor/hull sums to the
// permanent denominator residue, keeping certified intervals sound (if
// wider); ranked queries skip them outright, which is exactly the
// no-false-dismissal argument of the node-level hull applied per vector.
func (tr *traversal) expandQuantLeaf(n *node) error {
	t := tr.tree
	q := n.quant
	hulls, floors := tr.logBounds(&q.iv, math.Inf(1))
	if thr, ok := tr.col.admission(tr.peers); ok {
		best := math.Inf(-1)
		for _, h := range hulls {
			if h > best {
				best = h
			}
		}
		if best <= thr {
			if tr.trackDenom {
				for j, floor := range floors {
					tr.denom.addResidual(floor, hulls[j])
				}
			}
			return nil
		}
	}
	side, err := t.readNodeCounted(q.sidecar, &tr.counter, tr.pin)
	if err != nil {
		return err
	}
	if side.cols == nil {
		return fmt.Errorf("core: page %d referenced as sidecar of leaf %d is not an exact leaf", q.sidecar, n.id)
	}
	tr.scoreExactLeaf(side)
	return nil
}

// growFloats returns buf resized to n, reallocating only when the capacity
// retained across pooled reuses is insufficient.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// finish stamps the traversal's page accesses and candidate count into the
// stats record and returns it.
func (tr *traversal) finish(retained int) query.Stats {
	tr.stats.PageAccesses = tr.counter.LogicalReads()
	tr.stats.CandidatesRetained = retained
	return tr.stats
}

// traceBegin opens a trace span bookmarking the traversal's cumulative work
// counters; on an untraced query (the common case) it is an inert no-op.
func (tr *traversal) traceBegin() obs.SpanStart {
	if tr.trace == nil {
		return obs.SpanStart{}
	}
	return tr.trace.Begin(int64(tr.counter.LogicalReads()), int64(tr.stats.NodesVisited), int64(tr.stats.VectorsScored))
}

// traceEnd closes a span opened by traceBegin, recording the pages read,
// nodes expanded and vectors scored since then under name, attributed to
// shard/round (-1 when not applicable).
func (tr *traversal) traceEnd(sp obs.SpanStart, name string, shard, round int) {
	if tr.trace == nil {
		return
	}
	tr.trace.End(sp, name, shard, round, int64(tr.counter.LogicalReads()), int64(tr.stats.NodesVisited), int64(tr.stats.VectorsScored))
}
