package core

import (
	"context"
	"fmt"
	"math"

	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/pqueue"
	"github.com/gauss-tree/gausstree/internal/query"
)

// tiqCollector is the threshold-query policy of the cursor over the
// certified-stop kernel (bounds.go): a candidate set ordered by log density
// (cheap removal of the weakest) behind an admission filter, plus Figure 5's
// prune loop, subtree test and stop test.
//
// A scored vector is admitted only if it still reaches θ against admitLow,
// the denominator lower bound of the last stop test. That bound only grows,
// so a vector below θ against any earlier value of it can never qualify:
// refusing it is as final as pruning it, and a stale admitLow merely admits
// a few the next prune removes. The set holds survivors, not every vector.
type tiqCollector struct {
	th         threshold
	candidates *pqueue.Queue[vecRef]
	admitLow   float64
}

func (t *Tree) newTIQCollector(q pfv.Vector, pTheta float64) (*tiqCollector, error) {
	if q.Dim() != t.dim {
		return nil, fmt.Errorf("%w: query dimension %d, tree dimension %d", ErrDimension, q.Dim(), t.dim)
	}
	if !(pTheta >= 0 && pTheta <= 1) {
		return nil, fmt.Errorf("%w: threshold %v outside [0,1]", ErrInvalidArg, pTheta)
	}
	return &tiqCollector{
		th:         threshold{p: pTheta, log: math.Log(pTheta)},
		candidates: candidatesPool.Get().(*pqueue.Queue[vecRef]),
		admitLow:   math.Inf(-1),
	}, nil
}

// release returns the candidate queue cleared: no pooled leaf references.
func (c *tiqCollector) release() {
	c.candidates.Clear()
	candidatesPool.Put(c.candidates)
}

func (c *tiqCollector) offer(r vecRef, ld float64) {
	if c.th.reaches(ld, c.admitLow) {
		c.candidates.Push(r, ld)
	}
}

// prune drops candidates whose best-case probability against the lower
// denominator bound logLow is already below the threshold (Figure 5's
// "delete unnecessary candidates" loop); logLow becomes the admission bound.
func (c *tiqCollector) prune(logLow float64) {
	c.admitLow = logLow
	for c.candidates.Len() > 0 {
		if _, ld, _ := c.candidates.Peek(); c.th.reaches(ld, logLow) {
			return
		}
		c.candidates.Pop()
	}
}

// settled prunes against the combined lower bound of this tree and its
// peers and reports whether no unexplored subtree of tr could still hold an
// object that reaches the threshold against it.
func (c *tiqCollector) settled(tr *traversal, p Peers) bool {
	logLow := logAddExp(tr.bounds().logLow, p.LogLow)
	c.prune(logLow)
	next, ok := tr.active.peek()
	return !ok || !c.th.reaches(next.prio, logLow)
}

// done is Figure 5's stop test. With peers, whose mass is missing from
// every upper bound this tree knows, it can only settle. Alone, the tree's
// bounds are the denominator's, and the test goes on as the paper's does:
// the weakest candidate must be certified against the upper bound, and
// every width within accuracy.
func (c *tiqCollector) done(tr *traversal, accuracy float64, p Peers, alone bool) bool {
	if !c.settled(tr, p) {
		return false
	}
	if !alone {
		return true
	}
	if _, minLd, ok := c.candidates.Peek(); ok {
		b := tr.bounds()
		return c.th.reaches(minLd, b.logHigh) && !b.tooWide(tr.denom.exact.ref, accuracy, math.Inf(-1))
	}
	return true
}

// admission: a threshold answer has no k-th to beat, so nothing is screened
// and every quantized leaf's sidecar is read.
func (c *tiqCollector) admission(Peers) (float64, bool) { return 0, false }

func (c *tiqCollector) len() int { return c.candidates.Len() }

func (c *tiqCollector) appendTo(dst []Candidate) []Candidate {
	c.candidates.Items(func(r vecRef, ld float64) { dst = append(dst, Candidate{r, ld}) })
	return dst
}

// TIQ answers a threshold identification query (§5.2.3, paper Figure 5):
// it returns every database object whose Bayesian identification probability
// P(v|q) reaches pTheta. A candidate is discarded (or never admitted, see
// tiqCollector) as soon as its best-case probability against the certified
// denominator bounds falls below the threshold, and the traversal stops when
// no unexplored subtree can still contribute a qualifying object and every
// remaining candidate is certified above the threshold — and, if
// accuracy > 0, within that absolute accuracy.
func (t *Tree) TIQ(ctx context.Context, q pfv.Vector, pTheta float64, accuracy float64) ([]query.Result, query.Stats, error) {
	c, err := t.OpenTIQ(ctx, q, pTheta, accuracy)
	if err != nil {
		return nil, query.Stats{}, err
	}
	return c.answer()
}

// OpenTIQ starts a resumable threshold traversal (see Cursor). No pages are
// read until the first Refine.
func (t *Tree) OpenTIQ(ctx context.Context, q pfv.Vector, pTheta float64, accuracy float64) (*Cursor, error) {
	col, err := t.newTIQCollector(q, pTheta)
	if err != nil {
		return nil, err
	}
	return t.openCursor(ctx, q, col, true, accuracy, "tiq"), nil
}
