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

// readNode loads a node, following supernode continuation pointers. Every
// chained page is a logical page access, also when the decoded form is
// cached.
func (t *Tree) readNode(id pagefile.PageID) (*node, error) {
	return t.readNodeCounted(id, nil)
}

// readNodeCounted is readNode with the page accesses additionally charged to
// a per-query counter.
func (t *Tree) readNodeCounted(id pagefile.PageID, c *pagefile.Counter) (*node, error) {
	t.decMu.RLock()
	n, ok := t.decoded[id]
	t.decMu.RUnlock()
	if ok {
		for _, p := range n.pages {
			if _, err := t.mgr.ReadCounted(p, c); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	n = &node{id: id}
	page := id
	first := true
	for page != pagefile.NilPage {
		buf, err := t.mgr.ReadCounted(page, c)
		if err != nil {
			return nil, err
		}
		if len(buf) < nodeHeaderSize {
			return nil, fmt.Errorf("xtree: truncated page %d", page)
		}
		kind := buf[0]
		count := int(binary.LittleEndian.Uint16(buf[1:]))
		hist := binary.LittleEndian.Uint32(buf[3:])
		cont := pagefile.PageID(binary.LittleEndian.Uint32(buf[7:]))
		if first {
			n.leaf = kind == kindLeaf
			n.splitHist = hist
			first = false
		} else if (kind == kindLeaf) != n.leaf {
			return nil, fmt.Errorf("xtree: inconsistent chain kind at page %d", page)
		}
		off := nodeHeaderSize
		if n.leaf {
			for i := 0; i < count; i++ {
				v, used, err := pfv.DecodeBinary(buf[off:], t.dim)
				if err != nil {
					return nil, fmt.Errorf("xtree: page %d entry %d: %w", page, i, err)
				}
				n.vectors = append(n.vectors, v)
				off += used
			}
		} else {
			esz := innerEntrySize(t.dim)
			for i := 0; i < count; i++ {
				if off+esz > len(buf) {
					return nil, fmt.Errorf("xtree: page %d entry %d: short page", page, i)
				}
				c := childEntry{
					page: pagefile.PageID(binary.LittleEndian.Uint32(buf[off:])),
					box: rect.Rect{
						Lo: make([]float64, t.dim),
						Hi: make([]float64, t.dim),
					},
				}
				p := off + 4
				for j := 0; j < t.dim; j++ {
					c.box.Lo[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
					c.box.Hi[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p+8:]))
					p += 16
				}
				n.children = append(n.children, c)
				off += esz
			}
		}
		n.pages = append(n.pages, page)
		page = cont
	}
	t.decMu.Lock()
	t.decoded[id] = n
	t.decMu.Unlock()
	return n, nil
}

// writeNode persists a node, growing or shrinking its page chain as needed.
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
		buf := make([]byte, nodeHeaderSize, t.mgr.PageSize())
		buf[0] = kind
		binary.LittleEndian.PutUint16(buf[1:], uint16(hi-lo))
		binary.LittleEndian.PutUint32(buf[3:], n.splitHist)
		cont := pagefile.NilPage
		if pi+1 < need {
			cont = n.pages[pi+1]
		}
		binary.LittleEndian.PutUint32(buf[7:], uint32(cont))
		if n.leaf {
			for _, v := range n.vectors[lo:hi] {
				buf = pfv.AppendBinary(buf, v)
			}
		} else {
			for _, c := range n.children[lo:hi] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c.page))
				for j := 0; j < t.dim; j++ {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.box.Lo[j]))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.box.Hi[j]))
				}
			}
		}
		if err := t.mgr.Write(n.pages[pi], buf); err != nil {
			return err
		}
	}
	t.decMu.Lock()
	t.decoded[n.id] = n
	t.decMu.Unlock()
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
