package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// ErrCorrupt is wrapped by every violation that CheckInvariants and Scrub
// report — a page that cannot be read or decoded, a broken structural
// invariant, a quantized leaf its sidecar contradicts — so recovery and fuzz
// harnesses can distinguish "the tree is damaged" from I/O and argument
// errors with errors.Is.
var ErrCorrupt = errors.New("core: invariant violation")

// CheckInvariants verifies the published snapshot's structure (see check)
// over the pinned, cached reads queries take; a page that cannot be read or
// decoded is damage too and wraps ErrCorrupt as well as its cause (see
// corrupt). Like a query, it is safe (and consistent) concurrently with a
// writer.
func (t *Tree) CheckInvariants() error {
	snap, pin := t.pinSnap()
	defer t.mgr.UnpinEpoch(pin)
	return t.check(snap, func(id pagefile.PageID) (*node, error) {
		n, err := t.readNode(id, pin)
		return n, corrupt(id, err)
	})
}

// check walks snap's tree once, in pre-order, and verifies the structural
// guarantees of Definition 4 plus the bookkeeping the query algorithms rely
// on. It returns the first violation found, wrapping ErrCorrupt:
//
//   - every leaf is at depth height−1;
//   - non-root leaves hold minLeaf…capLeaf vectors, non-root inner nodes
//     minInner…capInner entries (40 % minimum: files written at 50 % pass);
//     the root is a leaf or an inner node with ≥ 2 entries (a 1-child root
//     would have been collapsed);
//   - every routing entry's count is the count of the node it routes to, its
//     derived logCount (precomputed for the §5.2.2 sum bounds) is fresh, and
//     its box is exactly that node's box — the minimum bounding box of the
//     leaf's vectors or of the inner node's entry boxes, so, level by level,
//     of the subtree (tightness);
//   - the root's count is the tree's Len;
//   - every stored vector has valid sigmas, and each quantized leaf's
//     intervals contain its sidecar's exact values (checkQuantLeaf).
//
// read loads every page the walk needs, sidecars included, and reports a
// page it cannot load as ErrCorrupt; the caller holds the pin snap needs.
func (t *Tree) check(snap *treeSnap, read func(pagefile.PageID) (*node, error)) error {
	root, err := read(snap.root)
	if err != nil {
		return err
	}
	if count := root.subtreeCount(); count != snap.count {
		return fmt.Errorf("%w: tree Len %d, but the root holds %d vectors", ErrCorrupt, snap.count, count)
	}
	return walk(root, nil, -1, 0, read, func(n, parent *node, i, depth int) error {
		count, box, err := t.checkNode(n, parent == nil, depth, snap.height, read)
		if err != nil || parent == nil {
			return err
		}
		e := parent.children[i]
		if count != e.count {
			return fmt.Errorf("%w: inner %d entry %d count %d, node %d holds %d", ErrCorrupt, parent.id, i, e.count, n.id, count)
		}
		if e.logCount != math.Log(float64(e.count)) {
			return fmt.Errorf("%w: inner %d entry %d stale derived logCount %v for count %d", ErrCorrupt, parent.id, i, e.logCount, e.count)
		}
		if !box.Equal(entryBox(&parent.boxes, i, t.dim)) {
			return fmt.Errorf("%w: inner %d entry %d box is not node %d's box", ErrCorrupt, parent.id, i, n.id)
		}
		return nil
	})
}

// checkNode verifies one node on its own — its depth if a leaf, its fill,
// its vectors and a quantized leaf's sidecar — and returns the count and
// box its parent's entry must hold.
func (t *Tree) checkNode(n *node, isRoot bool, depth, height int, read func(pagefile.PageID) (*node, error)) (int, ParamBox, error) {
	if !n.leaf {
		lo := t.minInner
		if isRoot {
			lo = 2
		}
		if len(n.children) < lo || len(n.children) > t.capInner {
			return 0, ParamBox{}, fmt.Errorf("%w: inner %d fill %d outside [%d,%d]", ErrCorrupt, n.id, len(n.children), lo, t.capInner)
		}
		u := union(&n.boxes, t.dim)
		return n.subtreeCount(), entryBox(&u, 0, t.dim), nil
	}
	if depth+1 != height {
		return 0, ParamBox{}, fmt.Errorf("%w: leaf %d at depth %d, height %d", ErrCorrupt, n.id, depth, height)
	}
	cols := n.cols
	if n.quant != nil {
		side, err := read(n.quant.sidecar)
		if err != nil {
			return 0, ParamBox{}, err
		}
		if cols = side.cols; cols == nil {
			return 0, ParamBox{}, fmt.Errorf("%w: page %d referenced as sidecar is not an exact leaf", ErrCorrupt, n.quant.sidecar)
		}
	}
	count, lo := cols.Len(), t.minLeaf
	if isRoot {
		lo = 0
	}
	if count < lo || count > t.capLeaf {
		return 0, ParamBox{}, fmt.Errorf("%w: leaf %d fill %d outside [%d,%d]", ErrCorrupt, n.id, count, lo, t.capLeaf)
	}
	for j := 0; j < count; j++ {
		v := cols.Vector(j)
		if _, err := pfv.New(v.ID, v.Mean, v.Sigma); err != nil {
			return 0, ParamBox{}, fmt.Errorf("%w: vector %d invalid: %w", ErrCorrupt, v.ID, err)
		}
	}
	if err := checkQuantLeaf(n, cols, t.dim); err != nil {
		return 0, ParamBox{}, err
	}
	if count == 0 {
		return 0, NewParamBox(t.dim), nil
	}
	return count, BoxOfColumns(cols), nil
}

// checkQuantLeaf verifies the conservative-widening invariant of a
// quantized leaf against its exact sidecar payload: ids line up and every
// exact parameter lies inside its decoded interval (σ intervals positive).
// This is what makes §5.2.2 certification and no-false-dismissal pruning on
// quantized trees sound. No-op for exact leaves.
func checkQuantLeaf(n *node, exact *pfv.Columns, dim int) error {
	q := n.quant
	if q == nil {
		return nil
	}
	if q.len() != exact.Len() {
		return fmt.Errorf("%w: quantized leaf %d holds %d entries, sidecar %d has %d", ErrCorrupt, n.id, q.len(), q.sidecar, exact.Len())
	}
	for j, id := range exact.IDs {
		if q.ids[j] != id {
			return fmt.Errorf("%w: quantized leaf %d entry %d id %d, sidecar id %d", ErrCorrupt, n.id, j, q.ids[j], id)
		}
		for i := 0; i < dim; i++ {
			mu, sg := exact.Mean[i][j], exact.Sigma[i][j]
			muLo, muHi, sgLo, sgHi := q.iv.Dim(i)
			if !(muLo[j] <= mu && mu <= muHi[j]) {
				return fmt.Errorf("%w: quantized leaf %d entry %d dim %d: μ=%v outside widened [%v,%v]", ErrCorrupt,
					n.id, j, i, mu, muLo[j], muHi[j])
			}
			if !(sgLo[j] > 0 && sgLo[j] <= sg && sg <= sgHi[j]) {
				return fmt.Errorf("%w: quantized leaf %d entry %d dim %d: σ=%v outside widened (0,∞)∩[%v,%v]", ErrCorrupt,
					n.id, j, i, sg, sgLo[j], sgHi[j])
			}
		}
	}
	return nil
}

// ForEach visits every stored vector in depth-first leaf order; fn owns the
// vector it is handed. The walk reads the pinned published snapshot:
// concurrent mutations neither block it nor leak into it — the visited set
// is exactly one commit-consistent tree state.
func (t *Tree) ForEach(fn func(pfv.Vector) error) error {
	return t.walkSnap(t.readNode, func(n *node, pin pagefile.Pin) error {
		if !n.leaf {
			return nil
		}
		cols, err := t.exactColumns(n, pin)
		if err != nil {
			return err
		}
		for j := 0; j < cols.Len(); j++ {
			if err := fn(cols.Vector(j)); err != nil {
				return err
			}
		}
		return nil
	})
}

// CollectAll returns every stored vector (test and export helper).
func (t *Tree) CollectAll() ([]pfv.Vector, error) {
	out := make([]pfv.Vector, 0, t.Len())
	err := t.ForEach(func(v pfv.Vector) error {
		out = append(out, v)
		return nil
	})
	return out, err
}

// WalkLeafBoxes visits every leaf's bounding parameter box and entry count,
// an introspection hook for diagnosing clustering quality and bound
// tightness.
func (t *Tree) WalkLeafBoxes(fn func(box ParamBox, count int)) error {
	return t.walkSnap(t.readNode, func(n *node, pin pagefile.Pin) error {
		if !n.leaf {
			return nil
		}
		cols, err := t.exactColumns(n, pin)
		if err == nil && cols.Len() > 0 {
			fn(BoxOfColumns(cols), cols.Len())
		}
		return err
	})
}
