package xtree

import (
	"fmt"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/rect"
)

// CheckInvariants verifies the X-tree's structural guarantees: uniform leaf
// depth, directory entry boxes exactly bounding their subtrees, fill factors
// (supernodes are exempt from the upper bound by design, and a supernode
// must actually span multiple pages), and the total count.
func (t *Tree) CheckInvariants() error {
	leafDepth := -1
	var walk func(id pagefile.PageID, depth int, isRoot bool) (int, rect.Rect, error)
	walk = func(id pagefile.PageID, depth int, isRoot bool) (int, rect.Rect, error) {
		n, err := t.readNode(id, nil)
		if err != nil {
			return 0, rect.Rect{}, err
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return 0, rect.Rect{}, fmt.Errorf("xtree: leaf %d at depth %d, expected %d", id, depth, leafDepth)
			}
			if n.cols.Len() > t.perPageLeaf {
				return 0, rect.Rect{}, fmt.Errorf("xtree: leaf %d overfull: %d > %d", id, n.cols.Len(), t.perPageLeaf)
			}
			if !isRoot && n.cols.Len() < t.minLeaf {
				return 0, rect.Rect{}, fmt.Errorf("xtree: leaf %d underfull: %d < %d", id, n.cols.Len(), t.minLeaf)
			}
			if n.isSuper() {
				return 0, rect.Rect{}, fmt.Errorf("xtree: leaf %d is a supernode", id)
			}
			return n.cols.Len(), t.computeBox(n), nil
		}
		expectPages := pagesNeeded(len(n.children), t.perPageInner)
		if len(n.pages) != expectPages {
			return 0, rect.Rect{}, fmt.Errorf("xtree: node %d has %d pages, expected %d for %d entries",
				id, len(n.pages), expectPages, len(n.children))
		}
		if !isRoot && !n.isSuper() && len(n.children) < t.minInner {
			return 0, rect.Rect{}, fmt.Errorf("xtree: inner %d underfull: %d < %d", id, len(n.children), t.minInner)
		}
		total := 0
		var box rect.Rect
		for i, c := range n.children {
			cnt, cbox, err := walk(c.page, depth+1, false)
			if err != nil {
				return 0, rect.Rect{}, err
			}
			if !cbox.Equal(c.box) {
				return 0, rect.Rect{}, fmt.Errorf("xtree: node %d entry %d box not tight", id, i)
			}
			total += cnt
			if i == 0 {
				box = cbox.Clone()
			} else {
				box.ExtendInPlace(cbox)
			}
		}
		return total, box, nil
	}
	total, _, err := walk(t.root, 0, true)
	if err != nil {
		return err
	}
	if total != t.count {
		return fmt.Errorf("xtree: Len %d but subtrees hold %d", t.count, total)
	}
	return nil
}
