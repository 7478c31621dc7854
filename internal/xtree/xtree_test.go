package xtree

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/rect"
)

func newXTree(t *testing.T, dim, pageSize int, cfg Config) *Tree {
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

func clustered(rng *rand.Rand, n, dim, clusters int) []pfv.Vector {
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
	mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(128), 128)
	if _, err := New(mgr, 0, Config{}); err == nil {
		t.Error("dim 0 should fail")
	}
	if _, err := New(mgr, 27, Config{}); err == nil {
		t.Error("tiny pages should fail")
	}
}

func TestInsertMaintainsInvariants(t *testing.T) {
	tr := newXTree(t, 3, 1024, Config{})
	rng := rand.New(rand.NewSource(1))
	vs := clustered(rng, 500, 3, 5)
	for i, v := range vs {
		if err := tr.Insert(v); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if (i+1)%100 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d, expected splits", tr.Height())
	}
}

func TestCollectAllMatchesInserted(t *testing.T) {
	tr := newXTree(t, 2, 512, Config{})
	rng := rand.New(rand.NewSource(2))
	vs := clustered(rng, 300, 2, 4)
	if err := tr.InsertAll(vs); err != nil {
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

func TestRangeSearchEqualsBruteForce(t *testing.T) {
	tr := newXTree(t, 2, 512, Config{})
	rng := rand.New(rand.NewSource(3))
	vs := clustered(rng, 400, 2, 3)
	if err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		lo := []float64{rng.Float64() * 100, rng.Float64() * 100}
		hi := []float64{lo[0] + rng.Float64()*30, lo[1] + rng.Float64()*30}
		r := rect.MustNew(lo, hi)
		got, err := tr.RangeSearch(r)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs := map[uint64]bool{}
		for _, v := range got {
			gotIDs[v.ID] = true
		}
		for _, v := range vs {
			want := tr.boxOf(v).Intersects(r)
			if want != gotIDs[v.ID] {
				t.Fatalf("trial %d: vector %d intersect=%v but reported=%v",
					trial, v.ID, want, gotIDs[v.ID])
			}
		}
	}
}

func TestKMLIQSelfQuery(t *testing.T) {
	tr := newXTree(t, 3, 1024, Config{})
	rng := rand.New(rand.NewSource(4))
	vs := clustered(rng, 300, 3, 4)
	if err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for trial := 0; trial < 40; trial++ {
		src := vs[rng.Intn(len(vs))]
		mean := make([]float64, 3)
		sigma := make([]float64, 3)
		for i := range mean {
			sigma[i] = 0.2
			mean[i] = src.Mean[i] + rng.NormFloat64()*0.1
		}
		q := pfv.MustNew(0, mean, sigma)
		res, _, err := tr.KMLIQ(context.Background(), q, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 1 && res[0].Vector.ID == src.ID {
			hits++
		}
	}
	// The box approximation permits false dismissals, but with generous
	// boxes and near-exact queries it should almost always find the source.
	if hits < 35 {
		t.Errorf("only %d/40 self-queries found their source", hits)
	}
}

func TestTIQFiltersOnThreshold(t *testing.T) {
	tr := newXTree(t, 2, 512, Config{})
	rng := rand.New(rand.NewSource(5))
	vs := clustered(rng, 200, 2, 2)
	if err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	q := vs[13].Clone()
	q.ID = 0
	res, _, err := tr.TIQ(context.Background(), q, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Probability < 0.3 {
			t.Errorf("result %d below threshold: %v", r.Vector.ID, r.Probability)
		}
	}
	// The exact copy must be among the answers for a modest threshold.
	found := false
	for _, r := range res {
		if r.Vector.ID == vs[13].ID {
			found = true
		}
	}
	if !found {
		t.Error("exact duplicate missing from TIQ result")
	}
}

func TestSupernodesForm(t *testing.T) {
	// Highly overlapping data in many dimensions drives directory overlap
	// up, which must eventually produce supernodes rather than bad splits.
	tr := newXTree(t, 8, 1024, Config{MaxOverlap: 0.01})
	rng := rand.New(rand.NewSource(6))
	vs := make([]pfv.Vector, 1500)
	for i := range vs {
		mean := make([]float64, 8)
		sigma := make([]float64, 8)
		for j := range mean {
			mean[j] = rng.NormFloat64() * 0.3 // one dense blob: heavy overlap
			sigma[j] = rng.Float64()*2 + 0.5  // wide boxes
		}
		vs[i] = pfv.MustNew(uint64(i+1), mean, sigma)
	}
	if err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	supers, pages, err := tr.SupernodeCount()
	if err != nil {
		t.Fatal(err)
	}
	if supers == 0 {
		t.Skip("no supernodes formed with this data; acceptable but not exercising the path")
	}
	if pages <= supers {
		t.Errorf("%d supernodes spanning %d pages: chains must exceed one page", supers, pages)
	}
}

func TestQueryValidation(t *testing.T) {
	tr := newXTree(t, 2, 512, Config{})
	good := pfv.MustNew(0, []float64{1, 1}, []float64{1, 1})
	bad := pfv.MustNew(0, []float64{1}, []float64{1})
	if _, _, err := tr.KMLIQ(context.Background(), bad, 1, 0); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, _, err := tr.KMLIQ(context.Background(), good, 0, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, err := tr.TIQ(context.Background(), good, 2, 0); err == nil {
		t.Error("threshold > 1 should fail")
	}
	if _, err := tr.RangeSearch(rect.MustNew([]float64{0}, []float64{1})); err == nil {
		t.Error("range dimension mismatch should fail")
	}
	if err := tr.Insert(bad); err == nil {
		t.Error("insert dimension mismatch should fail")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.fillDefaults()
	if cfg.MaxOverlap != 0.2 {
		t.Errorf("defaults = %+v", cfg)
	}
	tr := newXTree(t, 2, 512, Config{})
	if z := tr.z; z < 1.9 || z > 2.0 {
		t.Errorf("z = %v, want ≈1.96", z)
	}
	if tr.cfg.Combiner != gaussian.CombineAdditive {
		t.Errorf("default combiner = %v", tr.cfg.Combiner)
	}
}

// CollectAll returns a fresh copy of every stored vector.
func (t *Tree) CollectAll() ([]pfv.Vector, error) {
	var out []pfv.Vector
	var walk func(id pagefile.PageID) error
	walk = func(id pagefile.PageID) error {
		n, err := t.readNode(id, nil)
		if err != nil {
			return err
		}
		if n.leaf {
			out = append(out, n.cols.Vectors()...)
			return nil
		}
		for _, c := range n.children {
			if err := walk(c.page); err != nil {
				return err
			}
		}
		return nil
	}
	return out, walk(t.root)
}

// SupernodeCount returns the number of directory supernodes and the total
// number of pages they span.
func (t *Tree) SupernodeCount() (supernodes, pages int, err error) {
	var walk func(id pagefile.PageID) error
	walk = func(id pagefile.PageID) error {
		n, e := t.readNode(id, nil)
		if e != nil {
			return e
		}
		if n.leaf {
			return nil
		}
		if n.isSuper() {
			supernodes++
			pages += len(n.pages)
		}
		for _, c := range n.children {
			if e := walk(c.page); e != nil {
				return e
			}
		}
		return nil
	}
	err = walk(t.root)
	return supernodes, pages, err
}

// RangeSearch returns every stored vector whose quantile box intersects the
// given rectangle (the filter step of the paper's comparison method).
func (t *Tree) RangeSearch(r rect.Rect) ([]pfv.Vector, error) {
	if r.Dim() != t.dim {
		return nil, fmt.Errorf("%w: query rectangle dimension %d, tree dimension %d", ErrDimension, r.Dim(), t.dim)
	}
	var out []pfv.Vector
	err := t.walkIntersecting(context.Background(), nil, nil, t.root, r, func(cols *pfv.Columns, j int) {
		out = append(out, cols.Vector(j))
	})
	return out, err
}
