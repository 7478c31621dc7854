package xtree

import (
	"fmt"
	"math"
	"sort"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/rect"
)

// Insert adds a copy of a vector to the X-tree.
func (t *Tree) Insert(v pfv.Vector) error {
	if v.Dim() != t.dim {
		return fmt.Errorf("%w: vector dimension %d, tree dimension %d", ErrDimension, v.Dim(), t.dim)
	}
	_, sibling, err := t.insertAt(t.root, v, t.height)
	if err != nil {
		return err
	}
	t.count++
	if sibling == nil {
		return nil
	}
	// Root split: grow the tree.
	oldRoot, err := t.readNode(t.root, nil)
	if err != nil {
		return err
	}
	newRootID, err := t.mgr.Allocate()
	if err != nil {
		return err
	}
	newRoot := &node{
		id:    newRootID,
		pages: []pagefile.PageID{newRootID},
		children: []childEntry{
			{page: oldRoot.id, box: t.computeBox(oldRoot)},
			*sibling,
		},
	}
	if err := t.writeNode(newRoot); err != nil {
		return err
	}
	t.root = newRootID
	t.height++
	return nil
}

// InsertAll inserts a batch of vectors.
func (t *Tree) InsertAll(vs []pfv.Vector) error {
	for _, v := range vs {
		if err := t.Insert(v); err != nil {
			return err
		}
	}
	return nil
}

// insertAt recursively inserts v under the node at id (level 1 = leaf).
// It returns the node's updated MBR and, if the node was split, the entry
// describing the new sibling.
func (t *Tree) insertAt(id pagefile.PageID, v pfv.Vector, level int) (rect.Rect, *childEntry, error) {
	n, err := t.readNode(id, nil)
	if err != nil {
		return rect.Rect{}, nil, err
	}
	if n.leaf {
		vs := append(n.cols.Vectors(), v)
		if len(vs) > t.perPageLeaf {
			return t.splitLeaf(n, vs)
		}
		n.cols = pfv.ColumnsOf(vs, t.dim)
		if err := t.writeNode(n); err != nil {
			return rect.Rect{}, nil, err
		}
		return t.computeBox(n), nil, nil
	}

	ci := t.chooseSubtree(n, v, level)
	childBox, sibling, err := t.insertAt(n.children[ci].page, v, level-1)
	if err != nil {
		return rect.Rect{}, nil, err
	}
	n.children[ci].box = childBox
	if sibling != nil {
		n.children = append(n.children, *sibling)
		if len(n.children) > len(n.pages)*t.perPageInner {
			if left, right, ok := t.tryDirectorySplit(n); ok {
				return left, right, nil
			}
			// No acceptable split: become (or extend) a supernode.
			// writeNode grows the page chain as required.
		}
	}
	if err := t.writeNode(n); err != nil {
		return rect.Rect{}, nil, err
	}
	return t.computeBox(n), nil, nil
}

// chooseSubtree implements the R*-tree descent criterion: for the level just
// above the leaves the child with the least overlap enlargement wins
// (restricted to the 16 least-area-enlargement candidates for cost), higher
// up the child with the least area enlargement.
func (t *Tree) chooseSubtree(n *node, v pfv.Vector, level int) int {
	vbox := t.boxOf(v)
	if level == 2 { // children are leaves
		type cand struct {
			idx int
			enl float64
		}
		cands := make([]cand, len(n.children))
		for i, c := range n.children {
			cands[i] = cand{i, c.box.Enlargement(vbox)}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].enl < cands[b].enl })
		// R* restricts the quadratic overlap test to the best candidates by
		// area enlargement; 6 keeps insertion fast at our fanouts with no
		// measurable quality loss.
		if len(cands) > 6 {
			cands = cands[:6]
		}
		best, bestOverlap, bestEnl := cands[0].idx, math.Inf(1), math.Inf(1)
		for _, c := range cands {
			grown := n.children[c.idx].box.Union(vbox)
			overlap := 0.0
			for j, o := range n.children {
				if j == c.idx {
					continue
				}
				overlap += grown.Overlap(o.box) - n.children[c.idx].box.Overlap(o.box)
			}
			if overlap < bestOverlap || (overlap == bestOverlap && c.enl < bestEnl) {
				best, bestOverlap, bestEnl = c.idx, overlap, c.enl
			}
		}
		return best
	}
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, c := range n.children {
		enl := c.box.Enlargement(vbox)
		area := c.box.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitLeaf performs the R* topological split of an overflowing leaf's
// vectors vs. The receiver keeps the left half and its page; the new right
// node is allocated and returned as a child entry.
func (t *Tree) splitLeaf(n *node, vs []pfv.Vector) (rect.Rect, *childEntry, error) {
	boxes := make([]rect.Rect, len(vs))
	for i, v := range vs {
		boxes[i] = t.boxOf(v)
	}
	axis, splitAt, order := t.topologicalSplit(boxes, t.minLeaf)
	right := &node{leaf: true, splitHist: n.splitHist | 1<<uint(axis)}
	n.splitHist |= 1 << uint(axis)

	leftV := make([]pfv.Vector, 0, splitAt)
	rightV := make([]pfv.Vector, 0, len(order)-splitAt)
	for _, i := range order[:splitAt] {
		leftV = append(leftV, vs[i])
	}
	for _, i := range order[splitAt:] {
		rightV = append(rightV, vs[i])
	}
	n.cols = pfv.ColumnsOf(leftV, t.dim)
	right.cols = pfv.ColumnsOf(rightV, t.dim)

	rightID, err := t.mgr.Allocate()
	if err != nil {
		return rect.Rect{}, nil, err
	}
	right.id = rightID
	right.pages = []pagefile.PageID{rightID}
	if err := t.writeNode(n); err != nil {
		return rect.Rect{}, nil, err
	}
	if err := t.writeNode(right); err != nil {
		return rect.Rect{}, nil, err
	}
	return t.computeBox(n), &childEntry{page: rightID, box: t.computeBox(right)}, nil
}

// tryDirectorySplit attempts to split an overflowing directory node. It
// first tries the topological (R*) split; if the two halves overlap too
// much it looks for an overlap-minimal split along a dimension from the
// node's split history; if that split would be too unbalanced the node is
// left intact (the caller turns it into a supernode) and ok is false.
func (t *Tree) tryDirectorySplit(n *node) (rect.Rect, *childEntry, bool) {
	boxes := make([]rect.Rect, len(n.children))
	for i, c := range n.children {
		boxes[i] = c.box
	}
	axis, splitAt, order := t.topologicalSplit(boxes, t.minInner)
	if t.splitOverlap(boxes, order, splitAt) > t.cfg.MaxOverlap {
		// Overlap-minimal split attempt along split-history dimensions.
		bestAxis, bestAt, bestOrder, bestOv := -1, 0, []int(nil), math.Inf(1)
		minEntries := int(math.Ceil(minFanout * float64(len(boxes))))
		for d := 0; d < t.dim; d++ {
			if n.splitHist&(1<<uint(d)) == 0 {
				continue
			}
			ord := sortedByCenter(boxes, d)
			for at := minEntries; at <= len(boxes)-minEntries; at++ {
				ov := t.splitOverlap(boxes, ord, at)
				if ov < bestOv {
					bestAxis, bestAt, bestOv = d, at, ov
					bestOrder = append(bestOrder[:0], ord...)
				}
			}
		}
		if bestAxis == -1 || bestOv > t.cfg.MaxOverlap {
			return rect.Rect{}, nil, false // supernode
		}
		axis, splitAt, order = bestAxis, bestAt, bestOrder
	}

	right := &node{splitHist: n.splitHist | 1<<uint(axis)}
	n.splitHist |= 1 << uint(axis)
	leftC := make([]childEntry, 0, splitAt)
	rightC := make([]childEntry, 0, len(order)-splitAt)
	for _, i := range order[:splitAt] {
		leftC = append(leftC, n.children[i])
	}
	for _, i := range order[splitAt:] {
		rightC = append(rightC, n.children[i])
	}
	n.children = leftC
	right.children = rightC

	rightID, err := t.mgr.Allocate()
	if err != nil {
		return rect.Rect{}, nil, false
	}
	right.id = rightID
	right.pages = []pagefile.PageID{rightID}
	if err := t.writeNode(n); err != nil {
		return rect.Rect{}, nil, false
	}
	if err := t.writeNode(right); err != nil {
		return rect.Rect{}, nil, false
	}
	return t.computeBox(n), &childEntry{page: rightID, box: t.computeBox(right)}, true
}

// topologicalSplit is the R*-tree split: the axis with the smallest margin
// sum wins; along it, the distribution with the least overlap (ties: least
// total area) wins. minEntries bounds the smaller side. It returns the
// chosen axis, the split position and the entry order.
func (t *Tree) topologicalSplit(boxes []rect.Rect, minEntries int) (axis, splitAt int, order []int) {
	n := len(boxes)
	if minEntries < 1 {
		minEntries = 1
	}
	if minEntries > n/2 {
		minEntries = n / 2
	}
	bestAxis, bestMargin := 0, math.Inf(1)
	for d := 0; d < t.dim; d++ {
		ord := sortedByCenter(boxes, d)
		margin := 0.0
		for at := minEntries; at <= n-minEntries; at++ {
			l := unionOf(boxes, ord[:at])
			r := unionOf(boxes, ord[at:])
			margin += l.Margin() + r.Margin()
		}
		if margin < bestMargin {
			bestAxis, bestMargin = d, margin
		}
	}
	ord := sortedByCenter(boxes, bestAxis)
	bestAt, bestOv, bestArea := minEntries, math.Inf(1), math.Inf(1)
	for at := minEntries; at <= n-minEntries; at++ {
		l := unionOf(boxes, ord[:at])
		r := unionOf(boxes, ord[at:])
		ov := l.Overlap(r)
		area := l.Area() + r.Area()
		if ov < bestOv || (ov == bestOv && area < bestArea) {
			bestAt, bestOv, bestArea = at, ov, area
		}
	}
	return bestAxis, bestAt, ord
}

// splitOverlap returns the overlap fraction of a tentative split: the volume
// of the two halves' MBR intersection relative to the smaller MBR volume
// (degenerate volumes fall back to margin-based comparison yielding 0 or 1).
func (t *Tree) splitOverlap(boxes []rect.Rect, order []int, at int) float64 {
	l := unionOf(boxes, order[:at])
	r := unionOf(boxes, order[at:])
	inter := l.Overlap(r)
	denom := math.Min(l.Area(), r.Area())
	if denom <= 0 {
		if inter > 0 {
			return 1
		}
		if l.Intersects(r) {
			return 1 // degenerate boxes touching: treat as full overlap
		}
		return 0
	}
	return inter / denom
}

func sortedByCenter(boxes []rect.Rect, d int) []int {
	order := make([]int, len(boxes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca := boxes[order[a]].Lo[d] + boxes[order[a]].Hi[d]
		cb := boxes[order[b]].Lo[d] + boxes[order[b]].Hi[d]
		if ca != cb {
			return ca < cb
		}
		return boxes[order[a]].Lo[d] < boxes[order[b]].Lo[d]
	})
	return order
}

func unionOf(boxes []rect.Rect, idxs []int) rect.Rect {
	out := boxes[idxs[0]].Clone()
	for _, i := range idxs[1:] {
		out.ExtendInPlace(boxes[i])
	}
	return out
}
