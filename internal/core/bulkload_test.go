package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

func TestBulkLoadInvariantsAndContent(t *testing.T) {
	for _, n := range []int{0, 1, 5, 50, 500, 3000} {
		tr := newTree(t, 3, 1024, Config{})
		rng := rand.New(rand.NewSource(int64(n) + 1))
		vs := clusteredVectors(rng, n, 3, 5)
		if err := tr.BulkLoad(vs); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := tr.CollectAll()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
		if len(got) != n {
			t.Fatalf("n=%d: collected %d", n, len(got))
		}
		for i := range vs {
			if !vs[i].Equal(got[i]) {
				t.Fatalf("n=%d: vector %d mismatch", n, i)
			}
		}
	}
}

func TestBulkLoadRejectsNonEmptyAndBadDims(t *testing.T) {
	tr := newTree(t, 2, 512, Config{})
	rng := rand.New(rand.NewSource(2))
	vs := clusteredVectors(rng, 10, 2, 1)
	if err := tr.Insert(vs[0]); err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(vs); err == nil {
		t.Error("BulkLoad on non-empty tree should fail")
	}
	tr2 := newTree(t, 2, 512, Config{})
	if err := tr2.BulkLoad([]pfv.Vector{pfv.MustNew(1, []float64{1}, []float64{1})}); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestBulkLoadPacksLeaves(t *testing.T) {
	tr := newTree(t, 2, 1024, Config{})
	rng := rand.New(rand.NewSource(3))
	vs := clusteredVectors(rng, 2000, 2, 6)
	if err := tr.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	leaves, _, err := tr.NodeCounts()
	if err != nil {
		t.Fatal(err)
	}
	fill := float64(2000) / float64(leaves*tr.LeafCapacity())
	if fill < 0.8 {
		t.Errorf("bulk-loaded leaf fill = %.0f%%, want ≥80%%", fill*100)
	}

	// Insert-built tree for comparison must be valid but less packed.
	tr2 := newTree(t, 2, 1024, Config{})
	if _, err := tr2.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	leaves2, _, _ := tr2.NodeCounts()
	if leaves >= leaves2 {
		t.Errorf("bulk load should use fewer leaves: %d vs %d", leaves, leaves2)
	}
}

func TestBulkLoadedTreeAnswersQueriesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vs := clusteredVectors(rng, 1200, 3, 8)

	bulk := newTree(t, 3, 1024, Config{})
	if err := bulk.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	mgrS, _ := pagefile.NewManager(pagefile.NewMemBackend(1024), 1024)
	ins, err := New(mgrS, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.InsertAll(vs); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 15; trial++ {
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		a, _, err := bulk.KMLIQ(context.Background(), q, 4, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ins.KMLIQ(context.Background(), q, 4, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].Vector.ID != b[i].Vector.ID {
				t.Errorf("trial %d rank %d: bulk %d vs insert %d", trial, i, a[i].Vector.ID, b[i].Vector.ID)
			}
		}
	}
}

func TestBulkLoadedTreeSupportsMutation(t *testing.T) {
	tr := newTree(t, 2, 512, Config{})
	rng := rand.New(rand.NewSource(5))
	vs := clusteredVectors(rng, 800, 2, 4)
	if err := tr.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	extra := clusteredVectors(rng, 100, 2, 4)
	for i := range extra {
		extra[i].ID += 10000
	}
	if _, err := tr.InsertAll(extra); err != nil {
		t.Fatal(err)
	}
	for _, v := range vs[:50] {
		ok, err := tr.Delete(v)
		if err != nil || !ok {
			t.Fatalf("delete: ok=%v err=%v", ok, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 850 {
		t.Errorf("Len = %d, want 850", tr.Len())
	}
}

// pagesHash is the SHA-256 over every page of the trees' stores, tree after
// tree and each in id order, with the page count: what a golden of the parent
// commit pins.
func pagesHash(tb testing.TB, trs ...*Tree) string {
	tb.Helper()
	h, pages := sha256.New(), 0
	for _, tr := range trs {
		for id := 0; id < tr.mgr.NumPages(); id++ {
			page, err := tr.mgr.Read(pagefile.PageID(id))
			if err != nil {
				tb.Fatal(err)
			}
			h.Write(page)
		}
		pages += tr.mgr.NumPages()
	}
	return fmt.Sprintf("%d pages %x", pages, h.Sum(nil))
}

// Goldens of the loader and split: DS1 (d = 27, 17 of 18 vectors a leaf)
// bulk-loaded under SplitVolume, and DS2 at N = 5 000 built by Insert alone,
// then 500 deletes whose condense-and-reinsert splits too. The median-cut
// evaluator rebuilt the sort-based parent's (commit 3bd59ab) byte for byte —
// 689 pages ea104dd88e166683252c1ab1768680b882fbd3c66d3dd4d149ce4f43100ba0ce
// and 186 pages b251fa1b1f966b6a9f2ccd1867ae408df89da706d94b730ab54a8ffd500dd3d5
// — until bulk-loaded leaves kept room for inserts and the minimum fill fell
// from 50 % to 40 % (after commit 4ee00dd).
const (
	bulkLoadDS1VolumeGolden = "729 pages 4e2ae84a0e57068eddc46bd47d0702b585c38784315d4bc5b5d38e9816848ab3"
	insertBuiltGolden       = "167 pages 6526253547cac3b69eec239149d725eec1c090560b5dd8a37cae46a908c76c96"
)

// Goldens recorded at commit eebd74b, before the evaluator kept per-axis
// orders: DS1 under the default objective (its histograms' many equal zeros
// are the tie-heavy case) and DS2 at N = 20 000 cut into four groups by Cuts,
// each group bulk-loaded into a tree of its own (the sharded path; the four
// stores hashed in group order).
const (
	bulkLoadDS1Golden     = "729 pages ff3af8971f042675ebe09fd5212a5db1913b41ba54ea69a81e380633af364043"
	bulkLoadDS2CutsGolden = "464 pages 0ed6da51b72fcb23ec4783cf3dfbf2085ed57a2f2eed034b51b98c95719e959f"
)

// TestBulkLoadSameAcrossProcs: the partition runs on as many goroutines as
// there are processors, and the pages are the recorded ones however many that is.
func TestBulkLoadSameAcrossProcs(t *testing.T) {
	ds1, err := dataset.ColorHistograms(dataset.DefaultHistogramParams())
	if err != nil {
		t.Fatal(err)
	}
	p := dataset.DefaultSyntheticParams()
	p.N = 20000
	ds2, err := dataset.Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		tr, _ := ds2Tree(t, 20000, 1, 1)
		if got := pagesHash(t, tr); got != "456 pages "+bulkLoadGoldenHash {
			t.Errorf("GOMAXPROCS %d: DS2 bulk load built %s", procs, got)
		}
		for _, tc := range []struct {
			split  SplitObjective
			golden string
		}{{SplitVolume, bulkLoadDS1VolumeGolden}, {SplitHullIntegral, bulkLoadDS1Golden}} {
			tr := newTree(t, ds1.Dim, pagefile.DefaultPageSize, Config{Split: tc.split})
			if err := tr.BulkLoad(ds1.Vectors); err != nil {
				t.Fatal(err)
			}
			if got := pagesHash(t, tr); got != tc.golden {
				t.Errorf("GOMAXPROCS %d: DS1 bulk load (split %d) built %s, recorded %s", procs, tc.split, got, tc.golden)
			}
		}
		groups := newTree(t, ds2.Dim, pagefile.DefaultPageSize, Config{}).Cuts(ds2.Vectors, 4)
		shards := make([]*Tree, len(groups))
		for i, g := range groups {
			shards[i] = newTree(t, ds2.Dim, pagefile.DefaultPageSize, Config{})
			if err := shards[i].BulkLoadOwned(g); err != nil {
				t.Fatal(err)
			}
		}
		if got := pagesHash(t, shards...); got != bulkLoadDS2CutsGolden {
			t.Errorf("GOMAXPROCS %d: DS2 cut into four and bulk-loaded built %s, recorded %s", procs, got, bulkLoadDS2CutsGolden)
		}
	}
}

func TestInsertBuiltPagesMatchParent(t *testing.T) {
	p := dataset.DefaultSyntheticParams()
	p.N = 5000
	ds, err := dataset.Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTree(t, ds.Dim, pagefile.DefaultPageSize, Config{})
	if _, err := tr.InsertAll(ds.Vectors); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if ok, err := tr.Delete(ds.Vectors[i*10]); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := pagesHash(t, tr); got != insertBuiltGolden {
		t.Errorf("insert-built tree is %s, recorded %s", got, insertBuiltGolden)
	}
}

func TestChunkEntriesRespectsBounds(t *testing.T) {
	mk := func(n int) []childEntry { return make([]childEntry, n) }
	for _, tc := range []struct {
		n, cap, min int
	}{
		{1, 10, 2}, {9, 10, 2}, {10, 10, 2}, {11, 10, 2}, {12, 10, 2},
		{19, 10, 5}, {21, 10, 5}, {100, 7, 3},
	} {
		got := chunkEntries(mk(tc.n), tc.cap, tc.min)
		total := 0
		for i, g := range got {
			total += len(g)
			if len(g) > tc.cap {
				t.Errorf("n=%d: chunk %d oversize %d", tc.n, i, len(g))
			}
			if len(got) > 1 && len(g) < tc.min {
				t.Errorf("n=%d: chunk %d undersize %d", tc.n, i, len(g))
			}
		}
		if total != tc.n {
			t.Errorf("n=%d: chunks total %d", tc.n, total)
		}
	}
}

func BenchmarkBulkLoadVsInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	vs := clusteredVectors(rng, 5000, 4, 10)
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(4096), 4096)
			tr, _ := New(mgr, 4, Config{Combiner: gaussian.CombineAdditive})
			if err := tr.BulkLoad(vs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(4096), 4096)
			tr, _ := New(mgr, 4, Config{Combiner: gaussian.CombineAdditive})
			if _, err := tr.InsertAll(vs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
