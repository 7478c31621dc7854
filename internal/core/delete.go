package core

import (
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/wal"
)

// Delete removes one stored copy of the given probabilistic feature vector
// (matched by id, means and sigmas) and reports whether a copy was found.
// As in classical R-trees the full vector is required, because the descent
// is guided by parameter-space containment. Deletion is not in the paper: this
// is the R-tree family's, on parameter-space boxes. A node underflows below
// minFillPercent of its capacity — not after one delete from either half of a
// median split — and is condensed: its remaining objects (or a cascading inner
// underflow's whole subtree) are re-inserted through the normal insertion path.
//
// Like Insert, the whole mutation (including condensation re-inserts) is
// shadow-paged and sealed once (one log record, or one meta commit); a crash
// mid-delete recovers the tree as of the previous mutation. A failed Delete
// poisons the tree (further mutations are refused); reopen from the page
// store to recover.
func (t *Tree) Delete(v pfv.Vector) (bool, error) {
	return t.mutate(wal.RecDelete, v)
}

// delete applies one deletion to the writer's private state; see apply.
func (t *Tree) delete(v pfv.Vector) (bool, error) {
	path, found, err := t.findPath(v)
	if err != nil || !found {
		return false, err
	}
	// Clone the descent before mutating: the path nodes are the page
	// cache's shared decoded forms, and snapshot readers may be traversing
	// them right now.
	clonePath(path, t.dim)

	// Remove the vector from its leaf.
	leaf := path[len(path)-1].node
	if err := t.materializeLeaf(leaf); err != nil {
		return false, err
	}
	for i, w := range leaf.vectors {
		if w.Equal(v) {
			leaf.vectors = append(leaf.vectors[:i], leaf.vectors[i+1:]...)
			break
		}
	}
	t.count--

	var reinsert []pfv.Vector
	child := leaf
	for i := len(path) - 2; i >= 0; i-- {
		parent := path[i].node
		idx := path[i].childIdx
		if child.entryCount() < t.minEntries(child) {
			// Underflow: orphan the whole subtree and schedule its objects
			// for re-insertion.
			vs, err := t.orphan(child)
			if err != nil {
				return false, err
			}
			reinsert = append(reinsert, vs...)
			parent.children = append(parent.children[:idx], parent.children[idx+1:]...)
		} else {
			if err := t.rewriteNode(child); err != nil {
				return false, err
			}
			parent.children[idx] = child.entry(t.dim)
		}
		child = parent
	}

	// child is now the root. Shrink it while it is an inner node with a
	// single child.
	root := child
	if err := t.rewriteNode(root); err != nil {
		return false, err
	}
	t.root = root.id
	for !root.leaf && len(root.children) == 1 {
		oldID := root.id
		next, err := t.readNode(root.children[0].page, t.wpin)
		if err != nil {
			return false, err
		}
		if err := t.mgr.FreeDeferred(oldID); err != nil {
			return false, err
		}
		root = next
		t.root = root.id
		t.height--
	}
	if !root.leaf && len(root.children) == 0 {
		// The tree emptied out entirely: restart with an empty leaf root on
		// a fresh page (the old root page is still part of the committed
		// tree and must survive until the commit).
		if err := t.mgr.FreeDeferred(root.id); err != nil {
			return false, err
		}
		root = &node{leaf: true}
		if err := t.persistNew(root); err != nil {
			return false, err
		}
		t.root, t.height = root.id, 1
	}

	// Re-insert orphans through the regular path, under the same commit.
	t.count -= len(reinsert)
	for _, w := range reinsert {
		if err := t.insert(w); err != nil {
			return false, err
		}
	}
	return true, nil
}

// minEntries returns the minimum fill of a non-root node.
func (t *Tree) minEntries(n *node) int {
	if n.id == t.root {
		return 0
	}
	if n.leaf {
		return t.minLeaf
	}
	return t.minInner
}

// findPath locates the exact vector, returning the root-to-leaf path whose
// final leaf holds it. The descent explores only containment paths.
func (t *Tree) findPath(v pfv.Vector) ([]pathStep, bool, error) {
	root, err := t.readNode(t.root, t.wpin)
	if err != nil {
		return nil, false, err
	}
	var dfs func(n *node, path []pathStep) ([]pathStep, bool, error)
	dfs = func(n *node, path []pathStep) ([]pathStep, bool, error) {
		if n.leaf {
			cols, err := t.exactColumns(n, t.wpin)
			if err != nil || cols.Index(v) < 0 {
				return nil, false, err
			}
			return append(path, pathStep{node: n, childIdx: -1}), true, nil
		}
		for i, c := range n.children {
			if !containsVector(&n.boxes, i, v) {
				continue
			}
			child, err := t.readNode(c.page, t.wpin)
			if err != nil {
				return nil, false, err
			}
			got, ok, err := dfs(child, append(path, pathStep{node: n, childIdx: i}))
			if err != nil || ok {
				return got, ok, err
			}
		}
		return nil, false, nil
	}
	return dfs(root, nil)
}

// orphan walks an underfull (already loaded) node's subtree once: it gathers
// every vector stored there, for re-insertion, and frees each node's page and
// a quantized leaf's sidecar page, deferred — the pages belong to the last
// committed tree (and possibly to pinned reader snapshots), so reusing them
// before the next commit (e.g. for this delete's condensation re-inserts)
// would overwrite state still being read. Cache entries stay — see
// rewriteNode.
func (t *Tree) orphan(n *node) ([]pfv.Vector, error) {
	var out []pfv.Vector
	err := walk(n, nil, -1, 0, t.writerRead, func(n, _ *node, _, _ int) error {
		if n.vectors != nil {
			out = append(out, n.vectors...)
		} else if n.leaf {
			cols, err := t.exactColumns(n, t.wpin)
			if err != nil {
				return err
			}
			out = append(out, cols.Vectors()...)
		}
		if n.quant != nil {
			if err := t.mgr.FreeDeferred(n.quant.sidecar); err != nil {
				return err
			}
		}
		return t.mgr.FreeDeferred(n.id)
	})
	return out, err
}
