package xtree

import (
	"slices"
	"testing"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/rect"
)

// TestChainShrinkRecyclesPages rewrites a three-page directory node with one
// page of entries: the two pages the chain sheds are recycled at once (the
// tree's manager never commits nor advances, so both are fresh and new), no
// page waits for a grace period, and the node reads back shortened.
func TestChainShrinkRecyclesPages(t *testing.T) {
	tr := newXTree(t, 2, 256, Config{})
	id, err := tr.mgr.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	n := &node{id: id, pages: []pagefile.PageID{id}}
	for i := 0; i < 2*tr.perPageInner+1; i++ {
		lo := float64(i)
		n.children = append(n.children, childEntry{page: pagefile.PageID(1000 + i), box: rect.Rect{Lo: []float64{lo, -lo}, Hi: []float64{lo + 1, 1 - lo}}})
	}
	if err := tr.writeNode(n); err != nil {
		t.Fatal(err)
	}
	if len(n.pages) != 3 {
		t.Fatalf("%d entries of %d per page took %d pages, want 3", len(n.children), tr.perPageInner, len(n.pages))
	}
	shed := slices.Clone(n.pages[1:])

	n.children = n.children[:tr.perPageInner]
	if err := tr.writeNode(n); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(n.pages, []pagefile.PageID{id}) {
		t.Fatalf("shrunk chain is %v, want [%d]", n.pages, id)
	}
	if limbo := tr.mgr.LimboPages(); limbo != 0 {
		t.Errorf("%d shed pages await reclamation, want 0", limbo)
	}
	var next []pagefile.PageID
	for range shed {
		p, err := tr.mgr.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		next = append(next, p)
	}
	slices.Sort(shed)
	if slices.Sort(next); !slices.Equal(next, shed) {
		t.Errorf("the next allocations are %v, want the shed pages %v", next, shed)
	}

	got, err := tr.readNode(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.pages, n.pages) || len(got.children) != len(n.children) {
		t.Fatalf("read back %d entries over pages %v, want %d over %v", len(got.children), got.pages, len(n.children), n.pages)
	}
	for i, c := range got.children {
		want := n.children[i]
		if c.page != want.page || !slices.Equal(c.box.Lo, want.box.Lo) || !slices.Equal(c.box.Hi, want.box.Hi) {
			t.Errorf("entry %d reads back as %+v, want %+v", i, c, want)
		}
	}
}
