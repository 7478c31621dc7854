package xtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/rect"
)

const (
	kindLeaf  = 1
	kindInner = 2
)

// nodeHeaderSize is kind (1) + entry count (2) + split history (4) +
// continuation page (4).
const nodeHeaderSize = 11

// childEntry is one directory entry: a child page and the minimum bounding
// rectangle of the quantile boxes in its subtree.
type childEntry struct {
	page pagefile.PageID
	box  rect.Rect
}

// node is the in-memory form of an X-tree node, which may be a supernode
// occupying several chained pages.
type node struct {
	id        pagefile.PageID
	leaf      bool
	splitHist uint32
	pages     []pagefile.PageID // the chain; pages[0] == id
	vectors   []pfv.Vector
	children  []childEntry
}

func (n *node) entryCount() int {
	if n.leaf {
		return len(n.vectors)
	}
	return len(n.children)
}

// isSuper reports whether the node currently spans more than one page.
func (n *node) isSuper() bool { return len(n.pages) > 1 }

func leafEntrySize(dim int) int { return pfv.EncodedSize(dim) }

// innerEntrySize is child page id (4) + 2d float64 bounds.
func innerEntrySize(dim int) int { return 4 + 16*dim }

// pagesNeeded returns how many pages a node with the given entry count
// requires.
func pagesNeeded(entries, perPage int) int {
	if entries == 0 {
		return 1
	}
	return (entries + perPage - 1) / perPage
}

// chainPage is the decoded form of one page of a node's chain, the page
// cache's one entry for it: shared by every reader, immutable.
type chainPage struct {
	leaf      bool
	splitHist uint32
	cont      pagefile.PageID // next page of the chain, NilPage at its end
	vectors   []pfv.Vector
	children  []childEntry
}

// readNode loads a node, following supernode continuation pointers. Every
// chained page is a logical page access, also when its decoded form is
// cached.
func (t *Tree) readNode(id pagefile.PageID) (*node, error) {
	return t.readNodeCounted(id, nil)
}

// readNodeCounted is readNode with the page accesses additionally charged to
// a per-query counter. The node is assembled from its pages' cached forms
// into slices of its own, so the caller may edit and rewrite it.
func (t *Tree) readNodeCounted(id pagefile.PageID, c *pagefile.Counter) (*node, error) {
	n := &node{id: id}
	for pid := id; pid != pagefile.NilPage; {
		v, err := t.mgr.ReadDecoded(pid, c, t.decode)
		if err != nil {
			return nil, err
		}
		p := v.(*chainPage)
		if pid == id {
			n.leaf, n.splitHist = p.leaf, p.splitHist
		} else if p.leaf != n.leaf {
			return nil, fmt.Errorf("xtree: inconsistent chain kind at page %d", pid)
		}
		n.vectors = append(n.vectors, p.vectors...)
		n.children = append(n.children, p.children...)
		n.pages = append(n.pages, pid)
		pid = p.cont
	}
	return n, nil
}

// decodePage parses one page of a node's chain.
func decodePage(id pagefile.PageID, buf []byte, dim int) (*chainPage, error) {
	if len(buf) < nodeHeaderSize {
		return nil, fmt.Errorf("xtree: truncated page %d", id)
	}
	p := &chainPage{
		leaf:      buf[0] == kindLeaf,
		splitHist: binary.LittleEndian.Uint32(buf[3:]),
		cont:      pagefile.PageID(binary.LittleEndian.Uint32(buf[7:])),
	}
	count := int(binary.LittleEndian.Uint16(buf[1:]))
	off := nodeHeaderSize
	if p.leaf {
		for i := 0; i < count; i++ {
			v, used, err := pfv.DecodeBinary(buf[off:], dim)
			if err != nil {
				return nil, fmt.Errorf("xtree: page %d entry %d: %w", id, i, err)
			}
			p.vectors = append(p.vectors, v)
			off += used
		}
		return p, nil
	}
	esz := innerEntrySize(dim)
	for i := 0; i < count; i++ {
		if off+esz > len(buf) {
			return nil, fmt.Errorf("xtree: page %d entry %d: short page", id, i)
		}
		c := childEntry{
			page: pagefile.PageID(binary.LittleEndian.Uint32(buf[off:])),
			box:  rect.Rect{Lo: make([]float64, dim), Hi: make([]float64, dim)},
		}
		q := off + 4
		for j := 0; j < dim; j++ {
			c.box.Lo[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[q:]))
			c.box.Hi[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[q+8:]))
			q += 16
		}
		p.children = append(p.children, c)
		off += esz
	}
	return p, nil
}

// writeNode persists a node, growing or shrinking its page chain as needed;
// each page's cached form is the slice of the node's entries it holds.
func (t *Tree) writeNode(n *node) error {
	perPage := t.perPageLeaf
	if !n.leaf {
		perPage = t.perPageInner
	}
	need := pagesNeeded(n.entryCount(), perPage)
	for len(n.pages) < need {
		id, err := t.mgr.Allocate()
		if err != nil {
			return err
		}
		n.pages = append(n.pages, id)
	}
	for len(n.pages) > need {
		last := n.pages[len(n.pages)-1]
		if err := t.mgr.Free(last); err != nil {
			return err
		}
		n.pages = n.pages[:len(n.pages)-1]
	}

	kind := byte(kindInner)
	if n.leaf {
		kind = kindLeaf
	}
	for pi := 0; pi < need; pi++ {
		lo := pi * perPage
		hi := min(lo+perPage, n.entryCount())
		p := &chainPage{leaf: n.leaf, splitHist: n.splitHist, cont: pagefile.NilPage}
		if pi+1 < need {
			p.cont = n.pages[pi+1]
		}
		buf := make([]byte, nodeHeaderSize, t.mgr.PageSize())
		buf[0] = kind
		binary.LittleEndian.PutUint16(buf[1:], uint16(hi-lo))
		binary.LittleEndian.PutUint32(buf[3:], n.splitHist)
		binary.LittleEndian.PutUint32(buf[7:], uint32(p.cont))
		if n.leaf {
			p.vectors = n.vectors[lo:hi:hi]
			for _, v := range p.vectors {
				buf = pfv.AppendBinary(buf, v)
			}
		} else {
			p.children = n.children[lo:hi:hi]
			for _, c := range p.children {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c.page))
				for j := 0; j < t.dim; j++ {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.box.Lo[j]))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.box.Hi[j]))
				}
			}
		}
		if err := t.mgr.WriteDecoded(n.pages[pi], buf, p); err != nil {
			return err
		}
	}
	return nil
}

// computeBox returns the MBR of the node's entries (quantile boxes for
// leaves, child MBRs for directory nodes).
func (t *Tree) computeBox(n *node) rect.Rect {
	if n.entryCount() == 0 {
		lo := make([]float64, t.dim)
		hi := make([]float64, t.dim)
		for i := range lo {
			lo[i], hi[i] = math.Inf(1), math.Inf(-1)
		}
		return rect.Rect{Lo: lo, Hi: hi}
	}
	if n.leaf {
		b := t.boxOf(n.vectors[0])
		for _, v := range n.vectors[1:] {
			b.ExtendInPlace(t.boxOf(v))
		}
		return b
	}
	b := n.children[0].box.Clone()
	for _, c := range n.children[1:] {
		b.ExtendInPlace(c.box)
	}
	return b
}
