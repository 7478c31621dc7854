package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/wal"
)

// pathStep records one node on the root-to-leaf descent together with the
// index of the child entry the descent followed.
type pathStep struct {
	node     *node
	childIdx int // index into node.children of the next step; -1 at the leaf
}

// Insert adds a probabilistic feature vector to the tree, applying the
// paper's path-selection rules (§5.3): follow the unique containing child if
// there is exactly one; choose the least-volume-increase child if there is
// none; and when several children contain the new vector, probe the
// containment paths for a leaf the vector fits into exactly. Node overflows
// are resolved by the median split minimizing the configured objective.
//
// The mutation is shadow-paged (every dirtied node moves to a fresh page)
// and sealed either by a meta commit or, with a WAL attached, by one
// logical log record (group-committed; call WaitDurable after releasing
// the writer lock to await the shared fsync). A crash mid-insert recovers
// the tree as of the previous commit plus the replayed WAL tail. A failed
// Insert poisons the tree: further mutations are refused, because
// committing on top of a partially applied mutation could durably corrupt
// the index — reopen from the page store to recover.
func (t *Tree) Insert(v pfv.Vector) error {
	_, err := t.mutate(wal.RecInsert, v)
	return err
}

// InsertAll inserts a batch of vectors, each one a mutation of its own —
// applied, sealed and visible before the next begins, exactly as if Insert
// had been called in a loop — and returns how many it applied: len(vs), or
// on error the length of the applied prefix. A dimension mismatch anywhere
// in the batch refuses all of it. Like Insert it does not wait for the
// log: WaitDurable after releasing the writer lock. A failed batch poisons
// the tree like Insert.
func (t *Tree) InsertAll(vs []pfv.Vector) (int, error) {
	for i, v := range vs {
		if v.Dim() != t.dim {
			return 0, fmt.Errorf("%w: vector %d has dimension %d, tree dimension %d", ErrDimension, i, v.Dim(), t.dim)
		}
	}
	for i, v := range vs {
		if _, err := t.mutate(wal.RecInsert, v); err != nil {
			return i, err
		}
	}
	return len(vs), nil
}

// insert applies one insertion to the writer's private state; see apply.
func (t *Tree) insert(v pfv.Vector) error {
	path, err := t.choosePath(v)
	if err != nil {
		return err
	}
	// Clone the descent before mutating: the path nodes are the page
	// cache's shared decoded forms, and snapshot readers may be traversing
	// them right now.
	clonePath(path, t.dim)
	leaf := path[len(path)-1].node
	if err := t.materializeLeaf(leaf); err != nil {
		return err
	}
	leaf.vectors = append(leaf.vectors, v)
	t.count++

	// Resolve a possible leaf overflow, then propagate box/count/page-id
	// updates and splits toward the root. Every write is copy-on-write, so
	// each dirtied node's id changes and the parent entry must follow it.
	var splitOff *childEntry // the new sibling produced by a split, if any
	if len(leaf.vectors) > t.capLeaf {
		splitOff, err = t.splitNode(leaf)
	} else {
		err = t.rewriteNode(leaf)
	}
	if err != nil {
		return err
	}

	for i := len(path) - 2; i >= 0; i-- {
		parent := path[i].node
		idx := path[i].childIdx
		child := path[i+1].node
		parent.children[idx] = child.entry(t.dim)
		if splitOff != nil {
			parent.children = append(parent.children, *splitOff)
			splitOff = nil
		}
		if len(parent.children) > t.capInner {
			splitOff, err = t.splitNode(parent)
		} else {
			err = t.rewriteNode(parent)
		}
		if err != nil {
			return err
		}
	}

	if splitOff != nil {
		// The root itself split: grow the tree by one level.
		newRoot := &node{children: []childEntry{path[0].node.entry(t.dim), *splitOff}}
		if err := t.persistNew(newRoot); err != nil {
			return err
		}
		t.root = newRoot.id
		t.height++
		return nil
	}
	t.root = path[0].node.id
	return nil
}

// choosePath selects the root-to-leaf insertion path.
func (t *Tree) choosePath(v pfv.Vector) ([]pathStep, error) {
	n, err := t.readNode(t.root, t.wpin)
	if err != nil {
		return nil, err
	}
	path := []pathStep{}
	for !n.leaf {
		idx, err := t.chooseChild(n, v)
		if err != nil {
			return nil, err
		}
		path = append(path, pathStep{node: n, childIdx: idx})
		if n, err = t.readNode(n.children[idx].page, t.wpin); err != nil {
			return nil, err
		}
	}
	return append(path, pathStep{node: n, childIdx: -1}), nil
}

// chooseChild applies the paper's three insertion rules at one inner node.
func (t *Tree) chooseChild(n *node, v pfv.Vector) (int, error) {
	containing := make([]int, 0, 4)
	for i := range n.children {
		if containsVector(&n.boxes, i, v) {
			containing = append(containing, i)
		}
	}
	switch len(containing) {
	case 1:
		return containing[0], nil
	case 0:
		return t.leastEnlargementChild(n, v), nil
	}
	// Several children contain the vector: probe each containment path for
	// the best-fitting leaf. The probe fanout is capped (smallest-volume
	// candidates first) to bound the cost of pathological overlap.
	if len(containing) > probeFanout {
		box := NewParamBox(t.dim)
		costs := make([]float64, len(n.children))
		for _, i := range containing {
			boxInto(&n.boxes, i, box)
			costs[i] = box.LogAccessCost()
		}
		sort.Slice(containing, func(a, b int) bool {
			return costs[containing[a]] < costs[containing[b]]
		})
		containing = containing[:probeFanout]
	}
	bestIdx, bestEnl, bestCost := -1, math.Inf(1), math.Inf(1)
	for _, i := range containing {
		enl, cost, err := t.probeLeafCost(n.children[i].page, v)
		if err != nil {
			return 0, err
		}
		if enl < bestEnl || (enl == bestEnl && cost < bestCost) {
			bestIdx, bestEnl, bestCost = i, enl, cost
		}
	}
	return bestIdx, nil
}

// enlargement is what absorbing a vector costs a box, in the order §5.3's
// path selection compares: the objective increase, then the margin increase,
// then the absolute objective (preferring the more selective box).
type enlargement struct{ objective, margin, cost float64 }

func enlargementOf(box ParamBox, v pfv.Vector) enlargement {
	cost := box.LogAccessCost()
	return enlargement{box.LogAccessCostWith(v) - cost, box.MarginEnlargement(v), cost}
}

func (a enlargement) less(b enlargement) bool {
	if a.objective != b.objective {
		return a.objective < b.objective
	}
	if a.margin != b.margin {
		return a.margin < b.margin
	}
	return a.cost < b.cost
}

// leastEnlargementChild returns the index of the child of a readable inner
// node whose box needs the least enlargement to absorb v.
func (t *Tree) leastEnlargementChild(n *node, v pfv.Vector) int {
	best, least := 0, enlargement{math.Inf(1), math.Inf(1), math.Inf(1)}
	box := NewParamBox(t.dim)
	for i := range n.children {
		boxInto(&n.boxes, i, box)
		if e := enlargementOf(box, v); e.less(least) {
			best, least = i, e
		}
	}
	return best
}

// LeastEnlargement is leastEnlargementChild one level up, over the root
// boxes of a partitioned database (Tree.RootBox): the part that should take
// v. A part without vectors (its box is not looked at) costs nothing, and
// among equals the one with the fewest vectors wins.
func LeastEnlargement(boxes []ParamBox, counts []int, v pfv.Vector) int {
	best, least := 0, enlargement{math.Inf(1), math.Inf(1), math.Inf(1)}
	for i, box := range boxes {
		e := enlargement{cost: math.Inf(-1)}
		if counts[i] > 0 {
			e = enlargementOf(box, v)
		}
		if e.less(least) || (e == least && counts[i] < counts[best]) {
			best, least = i, e
		}
	}
	return best
}

// probeLeafCost descends the subtree under page following the same rules and
// returns the (objective enlargement, objective) of the leaf the descent
// would reach: enlargement 0 when the vector fits exactly.
func (t *Tree) probeLeafCost(page pagefile.PageID, v pfv.Vector) (enl, cost float64, err error) {
	n, err := t.readNode(page, t.wpin)
	if err != nil {
		return 0, 0, err
	}
	if n.leaf {
		cols, err := t.exactColumns(n, t.wpin)
		if err != nil {
			return 0, 0, err
		}
		if cols.Len() == 0 {
			return 0, math.Inf(-1), nil
		}
		box := BoxOfColumns(cols)
		c := box.LogAccessCost()
		return box.LogAccessCostWith(v) - c, c, nil
	}
	idx, err := t.chooseChild(n, v)
	if err != nil {
		return 0, 0, err
	}
	return t.probeLeafCost(n.children[idx].page, v)
}

// splitNode performs the §5.3 median split: the entries are halved at the
// median of every μ- and every σ-dimension, and the tentative split minimizing
// the configured objective over the two resulting bounding boxes (medianCut,
// the bulk loader's evaluator, on all entries) is made permanent. Only the
// winning axis is sorted, to order the entries inside the halves; all of it
// runs on the writer's goroutine. The receiver keeps the left half (and its
// page); the returned child entry describes the freshly allocated right half.
func (t *Tree) splitNode(n *node) (*childEntry, error) {
	count := n.entryCount()
	eval := newMedianCut(t.dim, t.cfg.Split, count, count)
	if n.leaf {
		eval.gatherVectors(n.vectors, 1)
	} else {
		eval.gatherChildren(n.children)
	}
	order, mid := eval.order(eval.best()), count/2
	right := &node{leaf: n.leaf}
	if n.leaf {
		n.vectors, right.vectors = pick(n.vectors, order[:mid]), pick(n.vectors, order[mid:])
	} else {
		n.children, right.children = pick(n.children, order[:mid]), pick(n.children, order[mid:])
	}

	rightID, err := t.mgr.Allocate()
	if err != nil {
		return nil, err
	}
	right.id = rightID
	// The shrunken left half is a modified committed node: copy-on-write.
	// The right half is brand new and goes to its fresh page directly.
	if err := t.rewriteNode(n); err != nil {
		return nil, err
	}
	if err := t.persistNode(right); err != nil {
		return nil, err
	}
	entry := right.entry(t.dim)
	return &entry, nil
}

// pick returns the entries of xs at the given positions, in that order.
func pick[T any](xs []T, at []int32) []T {
	out := make([]T, len(at))
	for i, j := range at {
		out[i] = xs[j]
	}
	return out
}
