package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// codecNodes returns one node per on-page kind (exact columnar with and
// without room for the NegLnSigma terms, sidecar, both quantized kinds,
// inner) holding count entries of the given dimension.
func codecNodes(t testing.TB, dim, count int) map[string]*node {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(31*dim + count)))
	vs := make([]pfv.Vector, count)
	for i := range vs {
		vs[i] = randomVec(rng, uint64(i+1), dim)
	}
	nodes := map[string]*node{
		"columnar": {leaf: true, kind: kindLeafCol, vectors: vs},
		"sidecar":  {leaf: true, kind: kindSidecar, vectors: vs},
	}
	cols := pfv.ColumnsOf(vs, dim)
	for name, format := range map[string]LeafFormat{"float32": LeafFloat32, "grid8": LeafGrid8} {
		q := buildQuantLeaf(format, cols, pagefile.DefaultPageSize)
		if q == nil {
			t.Fatalf("%s: batch not quantizable", name)
		}
		q.sidecar = 77
		nodes[name] = &node{leaf: true, kind: q.kind, quant: q}
	}
	inner := &node{kind: kindInner}
	for i := 0; i < count; i++ {
		inner.children = append(inner.children, childEntry{
			page: pagefile.PageID(100 + i), count: i + 1, box: BoxOfVectors(vs[i : i+1]),
		})
	}
	nodes["inner"] = inner
	return nodes
}

// TestNodeCodecFixedPoint: for every node kind, re-encoding a decoded page
// reproduces the page byte for byte — decoding into columns (and leaving the
// NegLnSigma terms to first use) loses nothing an encoder needs.
func TestNodeCodecFixedPoint(t *testing.T) {
	const dim = 10
	full := (pagefile.DefaultPageSize - colHeaderSize) / leafEntrySize(dim)
	for _, count := range []int{1, 7, full} {
		for name, n := range codecNodes(t, dim, count) {
			page := mustEncode(t, n, dim)
			if name == "columnar" {
				if stored := page[3]&flagNegLnSigma != 0; stored == (count == full) {
					t.Fatalf("columnar leaf of %d entries: NegLnSigma stored = %v", count, stored)
				}
			}
			got, err := decodeNode(5, page, dim)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, count, err)
			}
			if got.vectors != nil || got.entryCount() != count {
				t.Fatalf("%s/%d: decoded %d entries, row vectors %v", name, count, got.entryCount(), got.vectors != nil)
			}
			if again := mustEncode(t, got, dim); !bytes.Equal(again, page) {
				t.Errorf("%s/%d: encode(decode(page)) differs from page", name, count)
			}
		}
	}
	empty := mustEncode(t, &node{leaf: true}, dim)
	got, err := decodeNode(5, empty, dim)
	if err != nil {
		t.Fatal(err)
	}
	if again := mustEncode(t, got, dim); !bytes.Equal(again, empty) {
		t.Error("empty leaf is not a codec fixed point")
	}
}

// TestDecodeAllocations bounds the allocations of one decode independent of
// the entry count. A columnar leaf is its node and its columns (their headers
// inline at this dimension): the ids and parameters are views of the page
// image, so nothing a leaf decode allocates is sized by the page body. An
// inner node is the node, the entries and one backing array for all the box
// columns. A host that copies columnar bodies out instead of viewing them
// adds the ids and one parameter array to a leaf.
func TestDecodeAllocations(t *testing.T) {
	const dim = 10
	full := (pagefile.DefaultPageSize - colHeaderSize) / leafEntrySize(dim)
	for _, count := range []int{3, full} {
		nodes := codecNodes(t, dim, count)
		for name, limit := range map[string]float64{"columnar": 2, "sidecar": 2, "inner": 3} {
			page := mustEncode(t, nodes[name], dim)
			decode := func() *node {
				n, err := decodeNode(1, page, dim)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			leaf := decode().cols
			views := leaf != nil && viewsOf(leaf.IDs, page) && viewsOf(leaf.Mean[0], page) && viewsOf(leaf.Sigma[dim-1], page)
			if leaf != nil && !views {
				if runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64" {
					t.Errorf("%s with %d entries: decoded by copy on %s, a host that takes views", name, count, runtime.GOARCH)
				}
				limit += 2
			}
			if allocs := testing.AllocsPerRun(50, func() { decode() }); allocs > limit {
				t.Errorf("%s with %d entries: %.0f allocations per decode, want <= %.0f", name, count, allocs, limit)
			}
			if !views || count != full {
				continue
			}
			// The least of five rounds, so a stray allocation elsewhere in
			// the process cannot fail it.
			perDecode := uint64(math.MaxUint64)
			for round := 0; round < 5; round++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 50; i++ {
					decode()
				}
				runtime.ReadMemStats(&after)
				perDecode = min(perDecode, (after.TotalAlloc-before.TotalAlloc)/50)
			}
			if body := uint64(len(page) - colHeaderSize); perDecode > body/8 {
				t.Errorf("%s with %d entries: %d bytes allocated per decode of a %d-byte body", name, count, perDecode, body)
			}
		}
	}
}

// viewsOf reports whether run lies inside page.
func viewsOf[E any](run []E, page []byte) bool {
	p, lo := reflect.ValueOf(run).Pointer(), reflect.ValueOf(page).Pointer()
	return len(run) > 0 && p >= lo && p < lo+uintptr(len(page))
}

// leafPages returns the page ids of the tree's leaves in depth-first order.
func leafPages(t testing.TB, tr *Tree) []pagefile.PageID {
	t.Helper()
	var ids []pagefile.PageID
	var walk func(id pagefile.PageID)
	walk = func(id pagefile.PageID) {
		n, err := tr.readNode(id, pagefile.Pin{})
		if err != nil {
			t.Fatal(err)
		}
		if n.leaf {
			ids = append(ids, id)
			return
		}
		for _, c := range n.children {
			walk(c.page)
		}
	}
	walk(tr.root)
	return ids
}

// fillLeaves inserts count fresh observations into a bulk-loaded DS2 tree
// of 20 000 vectors. A bulk-loaded leaf holds 46 of 48 vectors, room enough
// for its NegLnSigma terms; the leaves the inserts fill to 47 or 48 are too
// full to store them, so their decoded form computes them on first use.
func fillLeaves(tb testing.TB, tr *Tree, count int) {
	tb.Helper()
	for _, v := range ds2Observations(tb, 20000, count, 3) {
		if err := tr.Insert(v); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestLazyNegLnSigmaBitIdentical: a leaf too full to store its NegLnSigma
// terms computes them on first use. They must equal, bit for bit, the terms
// the encoder stores when the same columns go to a page with room for them.
func TestLazyNegLnSigmaBitIdentical(t *testing.T) {
	tr, _ := ds2Tree(t, 20000, 1, 1)
	fillLeaves(t, tr, 1000)
	full := 0
	for _, id := range leafPages(t, tr) {
		page, err := tr.mgr.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if page[3]&flagNegLnSigma != 0 {
			continue
		}
		full++
		lazy, err := decodeNode(id, page, tr.dim)
		if err != nil {
			t.Fatal(err)
		}
		roomy, err := encodeColumnarLeaf(lazy.cols, kindLeafCol, 2*pagefile.DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		if roomy[3]&flagNegLnSigma == 0 {
			t.Fatal("double-size page did not store the terms")
		}
		stored, err := decodeNode(id, roomy, tr.dim)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh decode of the full page: the terms above were computed by
		// the encoder through the same columns.
		fresh, err := decodeNode(id, page, tr.dim)
		if err != nil {
			t.Fatal(err)
		}
		want, got := stored.cols.NegLnSigma(), fresh.cols.NegLnSigma()
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
				t.Fatalf("leaf %d vector %d: computed %x, stored %x", id, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
	if full < 200 {
		t.Fatalf("only %d full leaves checked", full)
	}
}

// Recorded by this same loop: 3-MLIQ ranked over ds2Tree(20000, 200, 9)
// after fillLeaves(1000). The parent of the one-cache change (commit 80de430)
// recorded 4463 pages, 78943 scored, hash 0xd2b7a6bcb5dad3c0 over the tree
// as bulk-loaded, when a bulk-loaded leaf was full (through commit 4ee00dd).
// Until ranked queries scored every vector of a leaf they read (commit
// 6b3cdad), the same pages scored 80138 vectors, hash 0xaf12d040c5e95ca7,
// with the same ids and densities.
const (
	rankedGoldenPages  = 6751
	rankedGoldenScored = 128472
	rankedGoldenHash   = 0x4dc363dfaae8a52b
)

// TestRankedOnFullLeavesMatchesParent runs the ranked path over a tree whose
// inserts filled half its leaves — leaves both with and without stored
// NegLnSigma terms — and requires the recorded answers to the bit: ids,
// densities, page and scored-vector counts per query. Every answer is also
// checked against a scan of the stored vectors.
func TestRankedOnFullLeavesMatchesParent(t *testing.T) {
	tr, qs := ds2Tree(t, 20000, 200, 9)
	fillLeaves(t, tr, 1000)
	stored, err := tr.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var pages, scored uint64
	for qi, q := range qs {
		res, st, err := tr.KMLIQRanked(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		pages += st.PageAccesses
		scored += uint64(st.VectorsScored)
		fmt.Fprintf(h, "%d %d %d:", qi, st.PageAccesses, st.VectorsScored)
		want := scanTopK(tr.cfg.Combiner, stored, q, 3)
		for i, r := range res {
			fmt.Fprintf(h, " %d %x", r.Vector.ID, math.Float64bits(r.LogDensity))
			if r.Vector.ID != want[i].id || math.Float64bits(r.LogDensity) != math.Float64bits(want[i].ld) {
				t.Fatalf("query %d rank %d: tree (%d, %v), scan (%d, %v)", qi, i, r.Vector.ID, r.LogDensity, want[i].id, want[i].ld)
			}
		}
	}
	if pages != rankedGoldenPages || scored != rankedGoldenScored || h.Sum64() != rankedGoldenHash {
		t.Errorf("ranked answers moved: pages %d scored %d hash %#x, recorded %d %d %#x",
			pages, scored, h.Sum64(), uint64(rankedGoldenPages), uint64(rankedGoldenScored), uint64(rankedGoldenHash))
	}
}

type scanHit struct {
	id uint64
	ld float64
}

// scanTopK is the scan oracle: the k densest stored vectors, ties by id.
func scanTopK(c gaussian.Combiner, stored []pfv.Vector, q pfv.Vector, k int) []scanHit {
	hits := make([]scanHit, len(stored))
	for i, v := range stored {
		hits[i] = scanHit{v.ID, pfv.JointLogDensity(c, v, q)}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].ld != hits[b].ld {
			return hits[a].ld > hits[b].ld
		}
		return hits[a].id < hits[b].id
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// bulkLoadGoldenHash is the SHA-256 over every page (in id order) of the
// tree the bulk load builds from DS2 at N = 20 000, 46-vector leaves. With
// full leaves the sort.SliceStable-based loader built 437 pages hashing to
// c6398378a980201c1283cb7797e851f9c229b4b38f3b2b1ad5830b6f13550be9, which the
// median-cut evaluator rebuilt byte for byte (through commit 4ee00dd).
const bulkLoadGoldenHash = "b9c4cef5a2357edf23783bbb345db5d2ade4bf78482238a7a2d8e25c7b3717e0"

func TestBulkLoadPagesMatchParent(t *testing.T) {
	tr, _ := ds2Tree(t, 20000, 1, 1)
	h := sha256.New()
	for id := 0; id < tr.mgr.NumPages(); id++ {
		page, err := tr.mgr.Read(pagefile.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(page)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != bulkLoadGoldenHash || tr.mgr.NumPages() != 456 {
		t.Errorf("bulk load built %d pages hashing to %s; recorded 456 hashing to %s", tr.mgr.NumPages(), got, bulkLoadGoldenHash)
	}
}

// fileDS2Tree bulk-loads DS2 at size n into a page file under a cache of
// cachePages pages.
func fileDS2Tree(tb testing.TB, n, cachePages int) *Tree {
	tb.Helper()
	mem, _ := ds2Tree(tb, n, 1, 1)
	vs, err := mem.CollectAll()
	if err != nil {
		tb.Fatal(err)
	}
	fb, err := pagefile.CreateFile(filepath.Join(tb.TempDir(), "ds2.gtree"), pagefile.DefaultPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := pagefile.NewManager(fb, pagefile.DefaultPageSize, pagefile.WithCacheBytes(cachePages*pagefile.DefaultPageSize))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { mgr.Close() })
	tr, err := New(mgr, mem.dim, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.BulkLoad(vs); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestCacheBytesBoundsDecodedNodes: under a 64-page cache the tree never
// holds more than 64 cache entries, and a decoded node does not outlive its
// entry — there is no second place that keeps it.
func TestCacheBytesBoundsDecodedNodes(t *testing.T) {
	const cachePages = 64
	tr := fileDS2Tree(t, 20000, cachePages)
	_, qs := ds2Tree(t, 20000, 100, 4)
	var live atomic.Int64
	decode := tr.decode
	tr.decode = func(id pagefile.PageID, page []byte) (any, error) {
		v, err := decode(id, page)
		if err == nil {
			live.Add(1)
			runtime.SetFinalizer(v.(*node), func(*node) { live.Add(-1) })
		}
		return v, err
	}
	tr.mgr.DropCache()
	for _, q := range qs {
		if _, _, err := tr.KMLIQ(context.Background(), q, 3, 1e-6); err != nil {
			t.Fatal(err)
		}
		if got := tr.mgr.CachedPages(); got > cachePages {
			t.Fatalf("%d pages cached under a %d-page budget", got, cachePages)
		}
	}
	if live.Load() <= cachePages {
		t.Fatalf("only %d decodes: the queries never outgrew the cache", live.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for live.Load() > cachePages {
		if time.Now().After(deadline) {
			t.Fatalf("%d decoded nodes alive under a %d-page cache with no query running", live.Load(), cachePages)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestReadersVerifiedUnderEvictingWriter: a file-backed tree under a 16-page
// cache, four readers beside one writer that inserts and deletes. Decoded
// entries are evicted, decoded again and their page ids recycled under the
// readers; every answer a reader can pair with a scan of the same published
// snapshot is checked against that scan. Meant for -race.
func TestReadersVerifiedUnderEvictingWriter(t *testing.T) {
	const pageSize = 1024
	fb, err := pagefile.CreateFile(filepath.Join(t.TempDir(), "evict.gtree"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pagefile.NewManager(fb, pageSize, pagefile.WithCacheBytes(16*pageSize))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	readersBesideWriter(t, mgr, func(*Tree) error {
		if got := mgr.CachedPages(); got > 16 {
			return fmt.Errorf("%d pages cached under a 16-page budget", got)
		}
		return nil
	})
}

// TestReadersExpandFreshlyPublishedNodes: the same readers and writer over a
// memory-backed tree that is cached whole, so no page is ever read back:
// every node a reader expands is the one the write of its page decoded into
// the cache — an inner node with its box columns, filled before the write
// that makes them reachable — while the writer goes on with the next
// mutation. The readers
// also run CheckInvariants, which reads every child box back out of the
// columns. Meant for -race.
func TestReadersExpandFreshlyPublishedNodes(t *testing.T) {
	const pageSize = 1024
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(pageSize), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	readersBesideWriter(t, mgr, (*Tree).CheckInvariants)
	if got := mgr.Stats().PhysicalReads; got != 0 {
		t.Fatalf("%d pages were read back; the readers were to share the nodes their writes cached", got)
	}
}

// readersBesideWriter bulk-loads a tree over mgr and runs four readers beside
// one writer that inserts and deletes. Every answer a reader can pair with a
// scan of the same published snapshot is checked against that scan, and
// check runs after each.
func readersBesideWriter(t *testing.T, mgr *pagefile.Manager, check func(*Tree) error) {
	const dim, base, churn = 2, 1500, 600
	tr, err := New(mgr, dim, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	vs := clusteredVectors(rng, base+churn, dim, 6)
	if err := tr.BulkLoad(vs[:base]); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	errs := make(chan error, 8)
	wg.Add(1)
	go func() { // insert the churn set, deleting an older vector after each insert
		defer wg.Done()
		defer close(writerDone)
		for i, v := range vs[base:] {
			if err := tr.Insert(v); err != nil {
				errs <- err
				return
			}
			if found, err := tr.Delete(vs[i]); err != nil || !found {
				errs <- fmt.Errorf("delete %d: found %v, %v", vs[i].ID, found, err)
				return
			}
		}
	}()

	var verified, underWriter atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			quiet := 0 // verified answers after the writer finished
			for quiet < 5 {
				writing := true
				select {
				case <-writerDone:
					writing = false
				default:
				}
				q := vs[r.Intn(len(vs))]
				before := tr.snapshot()
				ranked, _, err := tr.KMLIQRanked(ctx, q, 3)
				if err != nil {
					errs <- err
					return
				}
				refined, _, err := tr.KMLIQ(ctx, q, 3, 1e-6)
				if err != nil {
					errs <- err
					return
				}
				stored, err := tr.CollectAll()
				if err != nil {
					errs <- err
					return
				}
				if tr.snapshot() != before {
					continue // a publish fell between the answers and the scan
				}
				want := scanTopK(tr.cfg.Combiner, stored, q, 3)
				logDenom := math.Inf(-1)
				for _, v := range stored {
					logDenom = logAddExp(logDenom, pfv.JointLogDensity(tr.cfg.Combiner, v, q))
				}
				for i, w := range want {
					if ranked[i].Vector.ID != w.id || math.Float64bits(ranked[i].LogDensity) != math.Float64bits(w.ld) {
						errs <- fmt.Errorf("ranked rank %d: tree (%d, %v), scan (%d, %v)", i, ranked[i].Vector.ID, ranked[i].LogDensity, w.id, w.ld)
						return
					}
					p := math.Exp(w.ld - logDenom)
					if refined[i].Vector.ID != w.id || p < refined[i].ProbLow-1e-9 || p > refined[i].ProbHigh+1e-9 {
						errs <- fmt.Errorf("refined rank %d: tree %d in [%v, %v], scan %d with P = %v",
							i, refined[i].Vector.ID, refined[i].ProbLow, refined[i].ProbHigh, w.id, p)
						return
					}
				}
				verified.Add(1)
				if writing {
					underWriter.Add(1)
				} else {
					quiet++
				}
				if err := check(tr); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d answers verified, %d of them while the writer ran", verified.Load(), underWriter.Load())
}

// TestRankedRacesFirstTouch: eight goroutines issue the same ranked queries —
// the one query that reads the σ extrema and the NegLnSigma terms — against
// a file-backed tree reopened for every round, so each round's first
// touches (read, CRC, two copies) and first-use derivations race on the same
// leaves. Every answer equals a scan's to the bit. Meant for -race.
//
// This is also the check that a file the parent commit wrote opens and
// answers identically, without a binary fixture: TestBulkLoadPagesMatchParent
// pins the hash of every page a bulk load writes, so the file reopened here
// is the parent's byte for byte (the shard golden is older writers' output
// still).
func TestRankedRacesFirstTouch(t *testing.T) {
	mem, qs := ds2Tree(t, 5000, 4, 11)
	stored, err := mem.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "race.gtree")
	fb, err := pagefile.CreateFile(path, pagefile.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pagefile.NewManager(fb, pagefile.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, mem.dim, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(stored); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	want := make([][]scanHit, len(qs))
	for qi, q := range qs {
		want[qi] = scanTopK(tr.cfg.Combiner, stored, q, 3)
	}
	for round := 0; round < 5; round++ {
		tr, mgr := openFileTree(t, path)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for qi, q := range qs {
					res, _, err := tr.KMLIQRanked(context.Background(), q, 3)
					if err != nil || len(res) != len(want[qi]) {
						t.Errorf("round %d query %d: %d results, error %v", round, qi, len(res), err)
						return
					}
					for i, r := range res {
						if w := want[qi][i]; r.Vector.ID != w.id || math.Float64bits(r.LogDensity) != math.Float64bits(w.ld) {
							t.Errorf("round %d query %d rank %d: tree (%d, %v), scan (%d, %v)", round, qi, i, r.Vector.ID, r.LogDensity, w.id, w.ld)
						}
					}
				}
			}()
		}
		wg.Wait()
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
