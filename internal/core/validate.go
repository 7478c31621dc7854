package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// ErrCorrupt is wrapped by every structural-invariant violation that
// CheckInvariants (and the quantization cross-checks) report, so recovery
// and fuzz harnesses can distinguish "the tree is damaged" from I/O and
// argument errors with errors.Is.
var ErrCorrupt = errors.New("core: invariant violation")

// CheckInvariants walks the whole tree and verifies the structural
// guarantees of Definition 4 plus the bookkeeping the query algorithms rely
// on. It returns the first violation found:
//
//   - all leaves are at the same level;
//   - non-root leaves hold minLeaf…capLeaf vectors, non-root inner nodes
//     minInner…capInner entries (40 % minimum: files written at 50 % pass);
//     the root is a leaf or an inner node with ≥ 1 entry (≥ 2 when it has
//     children of its own, since a 1-child root would have been collapsed);
//   - every routing entry's box is exactly the minimum bounding box of its
//     child (tightness), its count is exactly the child's subtree count, and
//     its derived logCount (precomputed for the §5.2.2 sum bounds) is fresh;
//   - the tree's Len matches the root's subtree count;
//   - every stored vector has the tree's dimensionality and valid sigmas.
//
// A page that cannot be read or decoded is damage too and wraps ErrCorrupt
// as well as its cause (see corrupt). Like queries, the walk runs against the
// pinned published snapshot, so it is safe (and consistent) concurrently
// with a writer.
func (t *Tree) CheckInvariants() error {
	snap, pin := t.pinSnap()
	defer t.mgr.UnpinEpoch(pin)
	read := func(id pagefile.PageID) (*node, error) {
		n, err := t.readNode(id, pin)
		return n, corrupt(id, err)
	}
	root, err := read(snap.root)
	if err != nil {
		return err
	}
	leafDepth := -1
	var walk func(n *node, depth int, isRoot bool) (int, ParamBox, error)
	walk = func(n *node, depth int, isRoot bool) (int, ParamBox, error) {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return 0, ParamBox{}, fmt.Errorf("%w: leaf %d at depth %d, expected %d", ErrCorrupt, n.id, depth, leafDepth)
			}
			if depth+1 != snap.height {
				return 0, ParamBox{}, fmt.Errorf("%w: leaf depth %d inconsistent with height %d", ErrCorrupt, depth, snap.height)
			}
			cols, err := t.exactColumns(n, pin)
			if err != nil {
				return 0, ParamBox{}, corrupt(n.quant.sidecar, err) // only a sidecar read fails
			}
			count := cols.Len()
			if !isRoot && (count < t.minLeaf || count > t.capLeaf) {
				return 0, ParamBox{}, fmt.Errorf("%w: leaf %d fill %d outside [%d,%d]", ErrCorrupt, n.id, count, t.minLeaf, t.capLeaf)
			}
			if isRoot && count > t.capLeaf {
				return 0, ParamBox{}, fmt.Errorf("%w: root leaf overfull: %d > %d", ErrCorrupt, count, t.capLeaf)
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
			box := NewParamBox(t.dim)
			if count > 0 {
				box = BoxOfColumns(cols)
			}
			return count, box, nil
		}
		if !isRoot && (len(n.children) < t.minInner || len(n.children) > t.capInner) {
			return 0, ParamBox{}, fmt.Errorf("%w: inner %d fill %d outside [%d,%d]", ErrCorrupt, n.id, len(n.children), t.minInner, t.capInner)
		}
		if isRoot && (len(n.children) < 2 || len(n.children) > t.capInner) {
			return 0, ParamBox{}, fmt.Errorf("%w: inner root fill %d outside [2,%d]", ErrCorrupt, len(n.children), t.capInner)
		}
		total := 0
		var box ParamBox
		for i, c := range n.children {
			child, err := read(c.page)
			if err != nil {
				return 0, ParamBox{}, err
			}
			cnt, cbox, err := walk(child, depth+1, false)
			if err != nil {
				return 0, ParamBox{}, err
			}
			if cnt != c.count {
				return 0, ParamBox{}, fmt.Errorf("%w: inner %d entry %d count %d, subtree has %d", ErrCorrupt, n.id, i, c.count, cnt)
			}
			if c.logCount != math.Log(float64(c.count)) {
				return 0, ParamBox{}, fmt.Errorf("%w: inner %d entry %d stale derived logCount %v for count %d", ErrCorrupt, n.id, i, c.logCount, c.count)
			}
			if !cbox.Equal(entryBox(&n.boxes, i, t.dim)) {
				return 0, ParamBox{}, fmt.Errorf("%w: inner %d entry %d box not tight", ErrCorrupt, n.id, i)
			}
			total += cnt
			if i == 0 {
				box = cbox.Clone()
			} else {
				box.ExtendBox(cbox)
			}
		}
		return total, box, nil
	}
	total, _, err := walk(root, 0, true)
	if err != nil {
		return err
	}
	if total != snap.count {
		return fmt.Errorf("%w: tree Len %d, but subtrees hold %d vectors", ErrCorrupt, snap.count, total)
	}
	return nil
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
