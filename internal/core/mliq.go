package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/pqueue"
	"github.com/gauss-tree/gausstree/internal/query"
)

// Name identifies the Gauss-tree in engine-agnostic reports.
func (t *Tree) Name() string { return "gauss-tree" }

// Per-query collector pools: the top-k heap of the MLIQ algorithms and the
// candidate min-queue of TIQ (tiqCollector) keep their backing arrays across
// queries, so steady-state queries collect candidates without allocating.
// Releases clear every element: pooled state never pins decoded leaves.
var (
	topkPool = sync.Pool{
		New: func() any { return pqueue.NewTopK[vecRef](1) },
	}
	candidatesPool = sync.Pool{
		New: func() any { return pqueue.NewMin[vecRef]() },
	}
)

func acquireTopK(k int) *pqueue.TopK[vecRef] {
	top := topkPool.Get().(*pqueue.TopK[vecRef])
	top.Reset(k)
	return top
}

func releaseTopK(top *pqueue.TopK[vecRef]) {
	top.Reset(1) // drop collected references so the pool pins no leaf
	topkPool.Put(top)
}

// KMLIQRanked answers a k-most-likely identification query without
// computing the actual probability values — the basic algorithm of §5.2.1
// (paper Figure 4). It performs a best-first traversal ordered by the node
// hull priority ˆN(q) and stops as soon as all k candidates score at least
// as high as the best unexplored node, guaranteeing no false dismissals.
// The returned results carry the joint log densities; Probability fields
// are NaN.
func (t *Tree) KMLIQRanked(ctx context.Context, q pfv.Vector, k int) ([]query.Result, query.Stats, error) {
	c, err := t.OpenKMLIQRanked(ctx, q, k)
	if err != nil {
		return nil, query.Stats{}, err
	}
	return c.answer()
}

// OpenKMLIQRanked starts a resumable ranked k-MLIQ traversal (see Cursor):
// the k-MLIQ collector on a traversal that tracks no denominator. No pages
// are read until the first Refine.
func (t *Tree) OpenKMLIQRanked(ctx context.Context, q pfv.Vector, k int) (*Cursor, error) {
	if err := t.checkQuery(q, k); err != nil {
		return nil, err
	}
	return t.openCursor(ctx, q, mliqCollector{acquireTopK(k)}, false, 0, "kmliq_ranked"), nil
}

// KMLIQ answers a k-most-likely identification query including the actual
// identification probabilities (§5.2.2). Beyond the ranked traversal it
// maintains certified lower and upper bounds on the Bayes denominator from
// the n·ˇN / n·ˆN sum bounds of every unexplored subtree, and keeps
// expanding nodes until (a) the k best objects are determined and (b) each
// reported probability is certified within the requested absolute accuracy.
// accuracy ≤ 0 skips condition (b): results then carry whatever probability
// interval the traversal happened to certify.
func (t *Tree) KMLIQ(ctx context.Context, q pfv.Vector, k int, accuracy float64) ([]query.Result, query.Stats, error) {
	c, err := t.OpenKMLIQ(ctx, q, k, accuracy)
	if err != nil {
		return nil, query.Stats{}, err
	}
	return c.answer()
}

// OpenKMLIQ starts a resumable k-MLIQ traversal (see Cursor). No pages are
// read until the first Refine.
func (t *Tree) OpenKMLIQ(ctx context.Context, q pfv.Vector, k int, accuracy float64) (*Cursor, error) {
	if err := t.checkQuery(q, k); err != nil {
		return nil, err
	}
	return t.openCursor(ctx, q, mliqCollector{acquireTopK(k)}, true, accuracy, "kmliq"), nil
}

// mliqCollector is the k-MLIQ policy of the cursor: the k densest scored
// objects. The global top-k of a partitioned database is contained in the
// union of the per-shard top-k sets, so peers change nothing it keeps — only
// how soon it may stop (Peers.LogKth).
type mliqCollector struct{ top *pqueue.TopK[vecRef] }

func (c mliqCollector) offer(r vecRef, ld float64) { c.top.Offer(r, ld) }
func (c mliqCollector) prune(float64)              {}
func (c mliqCollector) len() int                   { return c.top.Len() }
func (c mliqCollector) release()                   { releaseTopK(c.top) }

func (c mliqCollector) appendTo(dst []Candidate) []Candidate {
	c.top.Items(func(r vecRef, ld float64) { dst = append(dst, Candidate{r, ld}) })
	return dst
}

// admission is the k-th best density known, the full heap's or the peers',
// whichever is larger: a vector or subtree that cannot beat it holds no
// member of the answer. With neither there is none (ok = false).
func (c mliqCollector) admission(p Peers) (float64, bool) {
	if bound, full := c.top.Bound(); full {
		return max(bound, p.LogKth), true
	}
	return p.LogKth, !math.IsInf(p.LogKth, -1)
}

// settled: the k best are determined as far as this tree is concerned — no
// queued subtree's hull beats the admission bound.
func (c mliqCollector) settled(tr *traversal, p Peers) bool {
	next, queued := tr.active.peek()
	bound, ok := c.admission(p)
	return !queued || ok && bound >= next.prio
}

// done is the two-part §5.2.2 stop condition against the traversal's pinned
// snapshot: the k best are determined (settled), and the densest candidate's
// probability — its width bound dominates every candidate's — is within
// accuracy as far as this tree's share of the denominator decides it: a
// peer's unexplored mass is the peer's to shrink, so peers enter both bounds
// with their certified low.
func (c mliqCollector) done(tr *traversal, accuracy float64, p Peers, _ bool) bool {
	if !c.settled(tr, p) {
		return false
	}
	maxLd := p.LogMax
	if tr.denom.exact.sum > 0 {
		maxLd = max(maxLd, tr.denom.exact.ref)
	}
	return !tr.bounds().tooWide(maxLd, accuracy, p.LogLow)
}

func (t *Tree) checkQuery(q pfv.Vector, k int) error {
	if q.Dim() != t.dim {
		return fmt.Errorf("%w: query dimension %d, tree dimension %d", ErrDimension, q.Dim(), t.dim)
	}
	if k <= 0 {
		return fmt.Errorf("%w: k must be positive, got %d", ErrInvalidArg, k)
	}
	return nil
}
