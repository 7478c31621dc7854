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
// continuation page (4). A data page's columnar body (pfv.AppendColumns,
// without −ln∏σ terms) follows it.
const nodeHeaderSize = 11

// childEntry is one directory entry: a child page and the minimum bounding
// rectangle of the quantile boxes in its subtree.
type childEntry struct {
	page pagefile.PageID
	box  rect.Rect
}

// node is the in-memory form of an X-tree node. A data (leaf) node is always
// one page, whose decoded columns it shares with the page cache: they are
// never edited, a mutation builds new ones. A directory node may be a
// supernode occupying several chained pages.
type node struct {
	id        pagefile.PageID
	leaf      bool
	splitHist uint32
	pages     []pagefile.PageID // the chain; pages[0] == id
	cols      *pfv.Columns      // leaf payload
	children  []childEntry      // directory payload
}

func (n *node) entryCount() int {
	if n.leaf {
		return n.cols.Len()
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

// chainPage is the decoded form of one page of a node's chain, cached beside
// the page's image: shared by every reader, immutable.
type chainPage struct {
	leaf      bool
	splitHist uint32
	cont      pagefile.PageID // next page of the chain, NilPage at its end
	cols      *pfv.Columns
	children  []childEntry
}

// readNode loads a node, following supernode continuation pointers. Every
// chained page is a logical page access, also when its decoded form is
// cached, charged to a per-query counter when c is non-nil. A directory node
// is assembled from its pages' decoded forms into slices of its own, so the
// caller may edit and rewrite it.
func (t *Tree) readNode(id pagefile.PageID, c *pagefile.Counter) (*node, error) {
	n := &node{id: id}
	for pid := id; pid != pagefile.NilPage; {
		v, err := t.mgr.ReadDecoded(pid, c, pagefile.Pin{}, t.decode)
		if err != nil {
			return nil, err
		}
		p := v.(*chainPage)
		switch {
		case pid == id:
			n.leaf, n.splitHist, n.cols = p.leaf, p.splitHist, p.cols
		case p.leaf || n.leaf:
			return nil, fmt.Errorf("xtree: data page %d in a chain", pid)
		}
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
	if p.leaf {
		cols, err := pfv.DecodeColumns(buf[nodeHeaderSize:], dim, count, false)
		if err != nil {
			return nil, fmt.Errorf("xtree: page %d: %w", id, err)
		}
		p.cols = cols
		return p, nil
	}
	esz := innerEntrySize(dim)
	off := nodeHeaderSize
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

// writeNode persists a node, growing or shrinking its page chain as needed
// (a data node's is one page); each page's decoded form is cached with the
// written image, as on a read. The tree's manager never commits nor advances
// an epoch, so every page is fresh and new, and a page the chain sheds is
// recycled at once.
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
		if err := t.mgr.FreeDeferred(last); err != nil {
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
		cont := pagefile.NilPage
		if pi+1 < need {
			cont = n.pages[pi+1]
		}
		buf := make([]byte, nodeHeaderSize, t.mgr.PageSize())
		buf[0] = kind
		binary.LittleEndian.PutUint16(buf[1:], uint16(hi-lo))
		binary.LittleEndian.PutUint32(buf[3:], n.splitHist)
		binary.LittleEndian.PutUint32(buf[7:], uint32(cont))
		if n.leaf {
			buf = pfv.AppendColumns(buf, n.cols, false)
		} else {
			for _, c := range n.children[lo:hi] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c.page))
				for j := 0; j < t.dim; j++ {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.box.Lo[j]))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.box.Hi[j]))
				}
			}
		}
		if err := t.mgr.WriteDecoded(n.pages[pi], buf, t.decode); err != nil {
			return err
		}
	}
	return nil
}

// computeBox returns the MBR of the node's entries (quantile boxes for
// leaves, child MBRs for directory nodes). Empty nodes (only the root may be
// empty) return an inverted box.
func (t *Tree) computeBox(n *node) rect.Rect {
	b := rect.Rect{Lo: make([]float64, t.dim), Hi: make([]float64, t.dim)}
	for i := range b.Lo {
		b.Lo[i], b.Hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, c := range n.children {
		b.ExtendInPlace(c.box)
	}
	if n.leaf {
		for i := range b.Lo {
			for j, m := range n.cols.Mean[i] {
				b.Lo[i] = min(b.Lo[i], m-t.z*n.cols.Sigma[i][j])
				b.Hi[i] = max(b.Hi[i], m+t.z*n.cols.Sigma[i][j])
			}
		}
	}
	return b
}

// boxMeets reports whether the quantile box of vector j of cols intersects
// r — boxOf(cols.Vector(j)).Intersects(r) — straight from the columns.
func (t *Tree) boxMeets(cols *pfv.Columns, j int, r rect.Rect) bool {
	for i := range r.Lo {
		m, s := cols.Mean[i][j], cols.Sigma[i][j]
		if r.Hi[i] < m-t.z*s || r.Lo[i] > m+t.z*s {
			return false
		}
	}
	return true
}
