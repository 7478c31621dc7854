package xtree

import (
	"context"
	"fmt"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/rect"
)

var _ query.Engine = (*Tree)(nil)

// Name identifies the X-tree baseline in engine-agnostic reports.
func (t *Tree) Name() string { return "x-tree" }

// walkIntersecting traverses every subtree whose box intersects r, checking
// the context at each node and charging node reads to the per-query counter
// and stats, and emits every stored vector whose quantile box intersects r
// as its position in a data page's columns (shared with the page cache).
// Skipping a non-intersecting subtree is what makes the filter an
// approximation, so it is recorded as early termination.
func (t *Tree) walkIntersecting(ctx context.Context, c *pagefile.Counter, stats *query.Stats, id pagefile.PageID, r rect.Rect, emit func(cols *pfv.Columns, j int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n, err := t.readNode(id, c)
	if err != nil {
		return err
	}
	if stats != nil {
		stats.NodesVisited++
	}
	if n.leaf {
		for j := range n.cols.IDs {
			if t.boxMeets(n.cols, j, r) {
				emit(n.cols, j)
			}
		}
		return nil
	}
	for _, ch := range n.children {
		if !ch.box.Intersects(r) {
			if stats != nil {
				stats.EarlyTermination = true
			}
			continue
		}
		if err := t.walkIntersecting(ctx, c, stats, ch.page, r, emit); err != nil {
			return err
		}
	}
	return nil
}

// KMLIQ approximates a k-most-likely identification query with the paper's
// X-tree method: filter all pfv whose 95% boxes intersect the query's box,
// then refine by computing exact joint probabilities over the candidate set.
// The Bayes denominator is taken over the candidates only, so probabilities
// are upper estimates (the accuracy parameter is ignored), and objects
// outside the filter are false dismissals — exactly the approximation the
// paper evaluates and criticizes.
func (t *Tree) KMLIQ(ctx context.Context, q pfv.Vector, k int, _ float64) ([]query.Result, query.Stats, error) {
	return t.kmliq(ctx, q, k, true)
}

// KMLIQRanked is the ranking-only variant of KMLIQ: the same filter walk,
// results ordered by joint density with NaN probabilities. The page cost is
// identical to KMLIQ because the filter dominates.
func (t *Tree) KMLIQRanked(ctx context.Context, q pfv.Vector, k int) ([]query.Result, query.Stats, error) {
	return t.kmliq(ctx, q, k, false)
}

func (t *Tree) kmliq(ctx context.Context, q pfv.Vector, k int, withProbs bool) ([]query.Result, query.Stats, error) {
	if err := t.checkQuery(q); err != nil {
		return nil, query.Stats{}, err
	}
	if k <= 0 {
		return nil, query.Stats{}, fmt.Errorf("%w: k must be positive, got %d", ErrInvalidArg, k)
	}
	var counter pagefile.Counter
	var stats query.Stats
	ev := pfv.NewJointEvaluator(t.cfg.Combiner, q)
	out, err := query.ExactKMLIQ(k, withProbs, func(yield func(*pfv.Columns, int, float64)) error {
		return t.walkIntersecting(ctx, &counter, &stats, t.root, t.boxOf(q), func(cols *pfv.Columns, j int) {
			stats.VectorsScored++
			yield(cols, j, ev.LogDensityAt(cols, j))
		})
	})
	stats.PageAccesses = counter.LogicalReads()
	stats.CandidatesRetained = len(out)
	return out, stats, err
}

// TIQ approximates a threshold identification query with the same
// filter-and-refine method. See KMLIQ for the approximation caveats.
func (t *Tree) TIQ(ctx context.Context, q pfv.Vector, pTheta float64, _ float64) ([]query.Result, query.Stats, error) {
	if err := t.checkQuery(q); err != nil {
		return nil, query.Stats{}, err
	}
	if !(pTheta >= 0 && pTheta <= 1) {
		return nil, query.Stats{}, fmt.Errorf("%w: threshold %v outside [0,1]", ErrInvalidArg, pTheta)
	}
	var counter pagefile.Counter
	var stats query.Stats
	// The filter step collects the candidate set once; both refinement
	// passes run over it.
	var cands []query.Hit
	ev := pfv.NewJointEvaluator(t.cfg.Combiner, q)
	err := t.walkIntersecting(ctx, &counter, &stats, t.root, t.boxOf(q), func(cols *pfv.Columns, j int) {
		stats.VectorsScored++
		cands = append(cands, query.Hit{Cols: cols, J: j, LogDensity: ev.LogDensityAt(cols, j)})
	})
	stats.PageAccesses = counter.LogicalReads()
	if err != nil {
		return nil, stats, err
	}
	out, err := query.ExactTIQ(pTheta, func(yield func(*pfv.Columns, int, float64)) error {
		for _, h := range cands {
			yield(h.Cols, h.J, h.LogDensity)
		}
		return nil
	})
	stats.CandidatesRetained = len(out)
	return out, stats, err
}

func (t *Tree) checkQuery(q pfv.Vector) error {
	if q.Dim() != t.dim {
		return fmt.Errorf("%w: query dimension %d, tree dimension %d", ErrDimension, q.Dim(), t.dim)
	}
	return nil
}
