package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

func newTree(t testing.TB, dim, pageSize int, cfg Config) *Tree {
	t.Helper()
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(pageSize), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func clusteredVectors(rng *rand.Rand, n, dim, clusters int) []pfv.Vector {
	centers := make([][]float64, clusters)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for j := range centers[i] {
			centers[i][j] = rng.Float64() * 100
		}
	}
	out := make([]pfv.Vector, n)
	for i := range out {
		c := centers[rng.Intn(clusters)]
		mean := make([]float64, dim)
		sigma := make([]float64, dim)
		for j := range mean {
			mean[j] = c[j] + rng.NormFloat64()*3
			sigma[j] = rng.Float64()*1.5 + 0.05
		}
		out[i] = pfv.MustNew(uint64(i+1), mean, sigma)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(256), 256)
	if _, err := New(mgr, 0, Config{}); err == nil {
		t.Error("dim 0 should fail")
	}
	// 256-byte pages cannot hold 27-dim entries.
	if _, err := New(mgr, 27, Config{}); err == nil {
		t.Error("tiny pages should fail")
	}
}

// TestInnerCapacityOfThree: a split of an inner node must leave two halves
// of the minimum fill out of capInner + 1 entries, which an inner capacity
// of 2 cannot (DS1's 27 dimensions at 2 KB pages: 1 000 inserts used to
// leave inner nodes of one entry). New refuses such a page with
// ErrInvalidArg naming the smallest page that works, and at that size 2 000
// inserts keep every invariant.
func TestInnerCapacityOfThree(t *testing.T) {
	const dim = 27
	smallest := nodeHeaderSize + 3*innerEntrySize(dim)
	for _, pageSize := range []int{2048, smallest - 1} {
		mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(pageSize), pageSize)
		_, err := New(mgr, dim, Config{})
		if !errors.Is(err, ErrInvalidArg) || !strings.Contains(err.Error(), fmt.Sprintf("smallest that works is %d bytes", smallest)) {
			t.Errorf("page size %d: New error %v, want ErrInvalidArg naming %d bytes", pageSize, err, smallest)
		}
	}
	tr := newTree(t, dim, smallest, Config{})
	if tr.capInner != 3 {
		t.Fatalf("inner capacity %d at %d-byte pages, want 3", tr.capInner, smallest)
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(randomVec(rng, uint64(i+1), dim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t, 3, 1024, Config{})
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("empty tree invariants: %v", err)
	}
	q := pfv.MustNew(0, []float64{1, 2, 3}, []float64{1, 1, 1})
	res, _, err := tr.KMLIQ(context.Background(), q, 3, 1e-6)
	if err != nil || len(res) != 0 {
		t.Errorf("empty KMLIQ: %v, %v", res, err)
	}
	res, _, err = tr.TIQ(context.Background(), q, 0.5, 0)
	if err != nil || len(res) != 0 {
		t.Errorf("empty TIQ: %v, %v", res, err)
	}
	res, _, err = tr.KMLIQRanked(context.Background(), q, 2)
	if err != nil || len(res) != 0 {
		t.Errorf("empty ranked: %v, %v", res, err)
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	tr := newTree(t, 2, 1024, Config{})
	if err := tr.Insert(pfv.MustNew(1, []float64{1}, []float64{1})); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestInsertMaintainsInvariants(t *testing.T) {
	for _, split := range []SplitObjective{SplitHullIntegral, SplitHullIntegralSum, SplitVolume} {
		tr := newTree(t, 2, 512, Config{Split: split})
		rng := rand.New(rand.NewSource(int64(split) + 10))
		vs := clusteredVectors(rng, 400, 2, 5)
		for i, v := range vs {
			if err := tr.Insert(v); err != nil {
				t.Fatalf("%v: insert %d: %v", split, i, err)
			}
			if (i+1)%50 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%v: after %d inserts: %v", split, i+1, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%v: final: %v", split, err)
		}
		if tr.Len() != 400 {
			t.Errorf("%v: Len = %d", split, tr.Len())
		}
		if tr.Height() < 2 {
			t.Errorf("%v: tree should have split at least once (height %d)", split, tr.Height())
		}
	}
}

func TestCollectAllMatchesInserted(t *testing.T) {
	tr := newTree(t, 3, 512, Config{})
	rng := rand.New(rand.NewSource(12))
	vs := clusteredVectors(rng, 300, 3, 4)
	if _, err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	got, err := tr.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vs) {
		t.Fatalf("collected %d of %d", len(got), len(vs))
	}
	sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
	for i := range vs {
		if !vs[i].Equal(got[i]) {
			t.Fatalf("vector %d mismatch", i)
		}
	}
}

func TestMetaOpenRoundTrip(t *testing.T) {
	mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(512), 512)
	tr, err := New(mgr, 2, Config{Combiner: gaussian.CombineConvolution})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	vs := clusteredVectors(rng, 150, 2, 3)
	if _, err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	// InsertAll committed the tree's meta record; Open restores everything
	// (root, geometry, configuration) from the manager alone.
	re, err := Open(mgr)
	if err != nil {
		t.Fatal(err)
	}
	if re.Config().Combiner != gaussian.CombineConvolution {
		t.Errorf("reopened combiner = %v, want convolution (persisted config)", re.Config().Combiner)
	}
	if re.Len() != tr.Len() || re.Height() != tr.Height() {
		t.Errorf("reopened Len=%d Height=%d, want %d/%d", re.Len(), re.Height(), tr.Len(), tr.Height())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Errorf("reopened invariants: %v", err)
	}
	// Reopened tree must answer queries identically.
	q := vs[7].Clone()
	q.ID = 0
	a, _, err := tr.KMLIQRanked(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := re.KMLIQRanked(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Vector.ID != b[i].Vector.ID {
			t.Errorf("rank %d: %d vs %d", i, a[i].Vector.ID, b[i].Vector.ID)
		}
	}
}

func TestDeleteSimple(t *testing.T) {
	tr := newTree(t, 2, 512, Config{})
	rng := rand.New(rand.NewSource(14))
	vs := clusteredVectors(rng, 100, 2, 3)
	if _, err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	ok, err := tr.Delete(vs[17])
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if tr.Len() != 99 {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The object must be gone.
	all, _ := tr.CollectAll()
	for _, v := range all {
		if v.Equal(vs[17]) {
			t.Fatal("deleted vector still present")
		}
	}
	// Deleting again reports absence.
	ok, err = tr.Delete(vs[17])
	if err != nil || ok {
		t.Errorf("second delete: ok=%v err=%v", ok, err)
	}
	// Deleting a never-inserted vector reports absence.
	ok, err = tr.Delete(pfv.MustNew(9999, []float64{1, 1}, []float64{1, 1}))
	if err != nil || ok {
		t.Errorf("phantom delete: ok=%v err=%v", ok, err)
	}
}

func TestDeleteAllAndReuse(t *testing.T) {
	tr := newTree(t, 2, 512, Config{})
	rng := rand.New(rand.NewSource(15))
	vs := clusteredVectors(rng, 200, 2, 4)
	if _, err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(len(vs))
	for i, pi := range perm {
		ok, err := tr.Delete(vs[pi])
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", pi, ok, err)
		}
		if (i+1)%25 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len after deleting all = %d", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("emptied tree height = %d", tr.Height())
	}
	// The tree must remain fully usable.
	if _, err := tr.InsertAll(vs[:50]); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 {
		t.Errorf("Len after reuse = %d", tr.Len())
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	tr := newTree(t, 2, 512, Config{})
	rng := rand.New(rand.NewSource(16))
	live := map[uint64]pfv.Vector{}
	nextID := uint64(1)
	for step := 0; step < 1200; step++ {
		if rng.Float64() < 0.65 || len(live) == 0 {
			v := clusteredVectors(rng, 1, 2, 1)[0]
			v.ID = nextID
			nextID++
			if err := tr.Insert(v); err != nil {
				t.Fatal(err)
			}
			live[v.ID] = v
		} else {
			// Delete a random live vector.
			var victim pfv.Vector
			for _, v := range live {
				victim = v
				break
			}
			ok, err := tr.Delete(victim)
			if err != nil || !ok {
				t.Fatalf("step %d: delete ok=%v err=%v", step, ok, err)
			}
			delete(live, victim.ID)
		}
		if step%150 == 149 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("step %d: Len %d vs live %d", step, tr.Len(), len(live))
			}
		}
	}
	all, err := tr.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(live) {
		t.Fatalf("final: %d stored vs %d live", len(all), len(live))
	}
	for _, v := range all {
		if !live[v.ID].Equal(v) {
			t.Fatalf("stored vector %d does not match live set", v.ID)
		}
	}
}

func TestNodeCounts(t *testing.T) {
	tr := newTree(t, 2, 512, Config{})
	rng := rand.New(rand.NewSource(17))
	tr.InsertAll(clusteredVectors(rng, 300, 2, 3))
	leaves, inners, err := tr.NodeCounts()
	if err != nil {
		t.Fatal(err)
	}
	if leaves == 0 || inners == 0 {
		t.Errorf("leaves=%d inners=%d", leaves, inners)
	}
	// Every leaf holds between minLeaf and capLeaf vectors: bounds on count.
	if leaves > 300/tr.minLeaf+1 || leaves < 300/tr.capLeaf {
		t.Errorf("leaf count %d implausible for 300 vectors (cap %d, min %d)",
			leaves, tr.capLeaf, tr.minLeaf)
	}
}

func TestHighDimensionalTree(t *testing.T) {
	// The paper's data set 1 shape: 27 dimensions.
	tr := newTree(t, 27, 8192, Config{})
	rng := rand.New(rand.NewSource(18))
	vs := clusteredVectors(rng, 120, 27, 3)
	if _, err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := vs[11].Clone()
	q.ID = 0
	res, _, err := tr.KMLIQ(context.Background(), q, 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Vector.ID != vs[11].ID {
		t.Errorf("27-d self-query top hit = %v", res)
	}
	if res[0].Probability < 0.5 {
		t.Errorf("self-query probability = %v, expected dominant", res[0].Probability)
	}
}

// NodeCounts returns the number of leaf and inner pages of the tree.
func (t *Tree) NodeCounts() (leaves, inners int, err error) {
	err = t.walkSnap(t.readNode, func(n *node, _ pagefile.Pin) error {
		if n.leaf {
			leaves++
		} else {
			inners++
		}
		return nil
	})
	return leaves, inners, err
}
