package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// buildPerfTree builds an in-memory tree of n random vectors for hot-path
// benchmarks.
func buildPerfTree(tb testing.TB, n, dim int) *Tree {
	tb.Helper()
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(pagefile.DefaultPageSize), pagefile.DefaultPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(mgr, dim, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	vs := make([]pfv.Vector, n)
	for i := range vs {
		vs[i] = randomVec(rng, uint64(i), dim)
	}
	if err := tr.BulkLoad(vs); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// BenchmarkReadNodeHot measures the fully cached node-read path in
// isolation: every page's cache entry holds its decoded node, so ns/op and
// allocs/op are the cost of one hot readNodeCounted — the single most
// frequent operation of every query.
func BenchmarkReadNodeHot(b *testing.B) {
	tr := buildPerfTree(b, 5000, 8)

	// Collect the root and one full inner level of page ids, then warm them.
	root, err := tr.readNode(tr.root, pagefile.Pin{})
	if err != nil {
		b.Fatal(err)
	}
	ids := []pagefile.PageID{tr.root}
	for _, c := range root.children {
		ids = append(ids, c.page)
	}
	var counter pagefile.Counter
	for _, id := range ids {
		if _, err := tr.readNodeCounted(id, &counter, pagefile.Pin{}); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := tr.readNodeCounted(ids[i%len(ids)], &counter, pagefile.Pin{})
		if err != nil {
			b.Fatal(err)
		}
		if n == nil {
			b.Fatal("nil node")
		}
	}
}

// BenchmarkFirstTouch measures the other end of the read path: after
// DropCache, one pass over every leaf of a file-backed DS2 tree, so each
// read is a backend read, a CRC check, one copy into a fresh page image and
// a decode that views it. ns/page, allocs/page and B/page are per leaf
// touched: the image, the node, its columns and the cache entry.
func BenchmarkFirstTouch(b *testing.B) {
	tr := fileDS2Tree(b, 20000, 1024) // the cache holds the whole tree
	leaves := leafPages(b, tr)
	var counter pagefile.Counter
	var elapsed time.Duration
	var mallocs, bytes uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.mgr.DropCache()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for _, id := range leaves {
			if _, err := tr.readNodeCounted(id, &counter, pagefile.Pin{}); err != nil {
				b.Fatal(err)
			}
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	if got := counter.PhysicalReads(); got != uint64(b.N*len(leaves)) {
		b.Fatalf("%d physical reads for %d first touches", got, b.N*len(leaves))
	}
	pages := float64(b.N * len(leaves))
	b.ReportMetric(float64(elapsed.Nanoseconds())/pages, "ns/page")
	b.ReportMetric(float64(mallocs)/pages, "allocs/page")
	b.ReportMetric(float64(bytes)/pages, "B/page")
}

// BenchmarkMissRecycled is the read path of a file-backed index whose cache
// holds a quarter of its pages, as mixed-rw-file's reader takes it: certified
// 3-MLIQs (accuracy 1e-6) on a file-backed DS2 tree of 20 000 vectors. A
// query's misses copy their slots into page images that earlier evictions
// retired, once the query pins that could see them are gone (pagefile's
// epoch.go); BenchmarkFirstTouch reads unpinned, into fresh images.
// ns/query, reads/query (physical), allocs/query and B/query are per query.
func BenchmarkMissRecycled(b *testing.B) {
	const n = 20000
	mem, qs := ds2Tree(b, n, 200, 3)
	tr := fileDS2Tree(b, n, mem.mgr.NumPages()/4)
	ctx := context.Background()
	query := func(i int) {
		if _, _, err := tr.KMLIQ(ctx, qs[i%len(qs)], 3, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
	for i := range qs {
		query(i) // the cache and the pool of images in their steady state
	}
	var before, after runtime.MemStats
	reads := tr.mgr.Stats().PhysicalReads
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	queries := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/queries, "ns/query")
	b.ReportMetric(float64(tr.mgr.Stats().PhysicalReads-reads)/queries, "reads/query")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/queries, "allocs/query")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/queries, "B/query")
}

// BenchmarkDecodeLeaf is the decode slice of a first touch alone: page bytes
// to *node for a full DS2 leaf (48 × 10) and a half-full one. Run with
// -benchmem: B/op is what a cache miss adds to the heap beside the image,
// the same at either fill because the columns view the page.
func BenchmarkDecodeLeaf(b *testing.B) {
	const dim = 10
	full := (pagefile.DefaultPageSize - colHeaderSize) / leafEntrySize(dim)
	for _, bc := range []struct {
		name  string
		count int
	}{{"full", full}, {"half", full / 2}} {
		b.Run(bc.name, func(b *testing.B) {
			page := mustEncode(b, codecNodes(b, dim, bc.count)["columnar"], dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decodeNode(1, page, dim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBulkLoad is the loader alone, DS2 into memory at N = 20 000 and at
// the benchmark of record's N = 100 000, where the large parts' full sorts
// weigh what they do there: procs-1 pins the single-goroutine kernel (the
// median-cut evaluator, the per-axis orders and the large parts' sorts),
// procs-default adds the halves cut in parallel.
func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{20000, 100000} {
		p := dataset.DefaultSyntheticParams()
		p.N = n
		ds, err := dataset.Synthetic(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, procs := range []int{1, 0} {
			name := fmt.Sprintf("n-%d/procs-default", n)
			if procs > 0 {
				name = fmt.Sprintf("n-%d/procs-%d", n, procs)
			}
			b.Run(name, func(b *testing.B) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := newTree(b, ds.Dim, pagefile.DefaultPageSize, Config{}).BulkLoad(ds.Vectors); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N*len(ds.Vectors))/b.Elapsed().Seconds(), "vectors/s")
			})
		}
	}
}

// BenchmarkMedianCut times the §5.3 evaluator on m DS2 entries (d = 10, 20
// axes) — leaf vectors, and inner entries whose boxes each cover four
// consecutive vectors. evaluate is one gather, its per-axis sorts and the
// median cut of every axis, in ns per (entry, axis); position is one more cut
// position costed on an axis whose order is held (what scoring a further rank
// would add), in ns per axis.
func BenchmarkMedianCut(b *testing.B) {
	p := dataset.DefaultSyntheticParams()
	p.N = 4 * 1023
	ds, err := dataset.Synthetic(p)
	if err != nil {
		b.Fatal(err)
	}
	children := make([]childEntry, 1023)
	for i := range children {
		box := BoxOf(ds.Vectors[4*i])
		for _, v := range ds.Vectors[4*i+1 : 4*i+4] {
			box.ExtendVector(v)
		}
		children[i] = childEntry{count: 4, box: box}
	}
	axes := 2 * ds.Dim
	for _, inner := range []bool{false, true} {
		for _, m := range []int{49, 220, 1023} {
			kind := "vectors"
			if inner {
				kind = "inner"
			}
			e := newMedianCut(ds.Dim, SplitHullIntegral, m, m)
			gather := func() {
				if inner {
					e.gatherChildren(children[:m])
				} else {
					e.gatherVectors(ds.Vectors[:m], 1)
				}
			}
			b.Run(fmt.Sprintf("%s/m-%d/evaluate", kind, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gather()
					e.best()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m*axes), "ns/entry-axis")
			})
			b.Run(fmt.Sprintf("%s/m-%d/position", kind, m), func(b *testing.B) {
				gather()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.cost(i % axes)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/axis")
			})
		}
	}
}

// innerNodes returns every inner node of the tree, root first.
func innerNodes(tb testing.TB, tr *Tree) []*node {
	tb.Helper()
	var out []*node
	var walk func(id pagefile.PageID)
	walk = func(id pagefile.PageID) {
		n, err := tr.readNode(id, pagefile.Pin{})
		if err != nil {
			tb.Fatal(err)
		}
		if n.leaf {
			return
		}
		out = append(out, n)
		for _, c := range n.children {
			walk(c.page)
		}
	}
	walk(tr.root)
	return out
}

// BenchmarkExpandInner is what traversal.expand pays per queued child of
// an inner node, over every inner node of a DS2-20k tree against one query,
// into warm scratch; ns/child is per child box and allocs/op must be 0.
// kernel is the batch bound kernel alone (ˆN and ˇN of every child);
// kernel+block adds the block the active queue keeps of them: the children
// ordered by hull and, the denominator tracked, their suffix sums.
func BenchmarkExpandInner(b *testing.B) {
	tr, qs := ds2Tree(b, 20000, 64, 9)
	inners := innerNodes(b, tr)
	children, widest := 0, 0
	for _, n := range inners {
		children += len(n.children)
		widest = max(widest, len(n.children))
	}
	scratch := make([]float64, 4*widest)
	bounds := func(n *node, q pfv.Vector) (hulls, floors []float64) {
		nc := len(n.children)
		hulls, floors = scratch[:nc], scratch[nc:2*nc]
		n.boxes.LogBounds(tr.cfg.Combiner, q, math.Inf(1), hulls, floors, scratch[2*nc:])
		return hulls, floors
	}
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			for _, n := range inners {
				bounds(n, q)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*children), "ns/child")
	})
	b.Run("kernel+block", func(b *testing.B) {
		var d denomTracker
		q := testQueue(&d)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			query := qs[i%len(qs)]
			for _, n := range inners {
				hulls, floors := bounds(n, query)
				q.push(n.children, hulls, floors, false)
			}
			q.Clear()
			d, q.denom = denomTracker{}, &d
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*children), "ns/child")
	})
}
