package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// encodeNode serializes a node into a page image, dispatching on the node's
// stamped kind as the write path does (persistNode: encodeLeaf or
// encodeInnerNode; 0 defaults to the exact columnar encoding). It returns an
// error — instead of silently truncating the stored counts — when an entry
// or subtree count does not fit its on-page field.
func encodeNode(n *node, dim, pageSize int) ([]byte, error) {
	if !n.leaf {
		return encodeInnerNode(n, dim)
	}
	if n.kind == kindLeafF32 || n.kind == kindLeafGrid {
		if n.quant == nil {
			return nil, fmt.Errorf("core: encodeNode: quantized leaf %d has no quantized payload", n.id)
		}
		return encodeQuantLeaf(n.quant, dim)
	}
	cols := n.cols
	if cols == nil || n.vectors != nil {
		cols = pfv.ColumnsOf(n.vectors, dim)
	}
	if n.kind == kindSidecar {
		return encodeColumnarLeaf(cols, kindSidecar, pageSize)
	}
	return encodeColumnarLeaf(cols, kindLeafCol, pageSize) // 0 (unstamped) or kindLeafCol
}

// mustEncode encodes a node for tests that only exercise the codec round
// trip, failing the test on encoding errors.
func mustEncode(tb testing.TB, n *node, dim int) []byte {
	tb.Helper()
	page, err := encodeNode(n, dim, pagefile.DefaultPageSize)
	if err != nil {
		tb.Fatalf("encodeNode: %v", err)
	}
	return page
}

func randomVec(rng *rand.Rand, id uint64, dim int) pfv.Vector {
	mean := make([]float64, dim)
	sigma := make([]float64, dim)
	for i := range mean {
		mean[i] = rng.NormFloat64() * 5
		sigma[i] = rng.Float64()*2 + 0.01
	}
	return pfv.MustNew(id, mean, sigma)
}

func TestLeafNodeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 3, 10, 27} {
		n := &node{id: 7, leaf: true}
		for i := 0; i < 5; i++ {
			n.vectors = append(n.vectors, randomVec(rng, uint64(i), dim))
		}
		page := mustEncode(t, n, dim)
		got, err := decodeNode(7, page, dim)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if !got.leaf || got.id != 7 || got.vectors != nil || got.cols.Len() != 5 {
			t.Fatalf("dim %d: decoded %+v", dim, got)
		}
		for i := range n.vectors {
			if !n.vectors[i].Equal(got.cols.Vector(i)) {
				t.Errorf("dim %d vector %d mismatch", dim, i)
			}
		}
	}
}

func TestInnerNodeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim := 4
	n := &node{id: 3}
	for i := 0; i < 6; i++ {
		vs := []pfv.Vector{randomVec(rng, uint64(i*2), dim), randomVec(rng, uint64(i*2+1), dim)}
		n.children = append(n.children, childEntry{
			page:  pagefile.PageID(i + 100),
			count: i + 1,
			box:   BoxOfVectors(vs),
		})
	}
	page := mustEncode(t, n, dim)
	got, err := decodeNode(3, page, dim)
	if err != nil {
		t.Fatal(err)
	}
	if got.leaf || len(got.children) != 6 {
		t.Fatalf("decoded %+v", got)
	}
	for i := range n.children {
		if got.children[i].page != n.children[i].page ||
			got.children[i].count != n.children[i].count ||
			got.children[i].box.Mu != nil || !entryBox(&got.boxes, i, dim).Equal(n.children[i].box) {
			t.Errorf("child %d mismatch", i)
		}
	}
}

func TestDecodeNodeErrors(t *testing.T) {
	if _, err := decodeNode(1, []byte{1}, 2); err == nil {
		t.Error("truncated header should fail")
	}
	if _, err := decodeNode(1, []byte{9, 0, 0}, 2); err == nil {
		t.Error("unknown kind should fail")
	}
	// Kind 1, the retired v1 row-major leaf, is an unknown kind now.
	if _, err := decodeNode(1, []byte{1, 0, 0}, 2); err == nil {
		t.Error("a v1 row-major leaf should fail")
	}
	// Leaf claiming 3 entries with no payload.
	if _, err := decodeNode(1, []byte{kindLeafCol, 3, 0, 0}, 2); err == nil {
		t.Error("short leaf payload should fail")
	}
	// Inner claiming 2 entries with no payload.
	if _, err := decodeNode(1, []byte{2, 2, 0}, 2); err == nil {
		t.Error("short inner payload should fail")
	}
}

func TestEmptyLeafCodec(t *testing.T) {
	n := &node{id: 9, leaf: true}
	got, err := decodeNode(9, mustEncode(t, n, 5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.leaf || got.entryCount() != 0 {
		t.Errorf("decoded %+v", got)
	}
}

func TestBoxOfAndContains(t *testing.T) {
	v := pfv.MustNew(1, []float64{1, 2}, []float64{0.1, 0.2})
	b := BoxOf(v)
	if !b.ContainsVector(v) {
		t.Error("degenerate box must contain its vector")
	}
	w := pfv.MustNew(2, []float64{1.5, 2}, []float64{0.1, 0.2})
	if b.ContainsVector(w) {
		t.Error("box must not contain other vectors")
	}
	b.ExtendVector(w)
	if !b.ContainsVector(v) || !b.ContainsVector(w) {
		t.Error("extended box must contain both")
	}
	if b.Mu[0].Lo != 1 || b.Mu[0].Hi != 1.5 {
		t.Errorf("mu interval = %+v", b.Mu[0])
	}
}

func TestBoxVolumeAndMargin(t *testing.T) {
	vs := []pfv.Vector{
		pfv.MustNew(1, []float64{0, 0}, []float64{1, 1}),
		pfv.MustNew(2, []float64{2, 1}, []float64{3, 2}),
	}
	b := BoxOfVectors(vs)
	// Mu widths: 2, 1; sigma widths: 2, 1 → volume = 2·2·1·1 = 4.
	if got := b.LogVolume(); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Errorf("LogVolume = %v, want ln 4", got)
	}
	if b.Margin() != 6 {
		t.Errorf("Margin = %v", b.Margin())
	}
	// New mu widths: 4, 1; sigma widths 2, 1.
	v := pfv.MustNew(3, []float64{4, 0.5}, []float64{1, 1.5})
	if b.MarginEnlargement(v) != 2 {
		t.Errorf("MarginEnlargement = %v", b.MarginEnlargement(v))
	}
}

func TestBoxContainsBox(t *testing.T) {
	a := BoxOfVectors([]pfv.Vector{
		pfv.MustNew(1, []float64{0}, []float64{1}),
		pfv.MustNew(2, []float64{10}, []float64{3}),
	})
	b := BoxOfVectors([]pfv.Vector{
		pfv.MustNew(3, []float64{2}, []float64{1.5}),
		pfv.MustNew(4, []float64{5}, []float64{2}),
	})
	if !a.ContainsBox(b) || b.ContainsBox(a) {
		t.Error("ContainsBox wrong")
	}
}

func TestBoxHullDominatesMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dim := 3
	vs := make([]pfv.Vector, 20)
	for i := range vs {
		vs[i] = randomVec(rng, uint64(i), dim)
	}
	b := BoxOfVectors(vs)
	for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		for trial := 0; trial < 200; trial++ {
			q := randomVec(rng, 999, dim)
			hulls, floors := kernelBounds(comb, q, b)
			hull, floor := hulls[0], floors[0]
			if floor > hull+1e-9 {
				t.Fatalf("floor %v above hull %v", floor, hull)
			}
			for _, v := range vs {
				ld := pfv.JointLogDensity(comb, v, q)
				if ld > hull+1e-9 {
					t.Fatalf("%v: member density %v above hull %v", comb, ld, hull)
				}
				if ld < floor-1e-9 {
					t.Fatalf("%v: member density %v below floor %v", comb, ld, floor)
				}
			}
		}
	}
}

func TestBoxAccessCost(t *testing.T) {
	v := pfv.MustNew(1, []float64{0, 0}, []float64{1, 1})
	point := BoxOf(v)
	// A degenerate box has cost 1 per dimension (the constant term).
	if got := point.LogAccessCost(); math.Abs(got) > 1e-12 {
		t.Errorf("point box LogAccessCost = %v, want ln 1", got)
	}
	if got := point.AccessCostSum(); math.Abs(got-2) > 1e-12 {
		t.Errorf("point box AccessCostSum = %v, want 2", got)
	}
	wide := BoxOfVectors([]pfv.Vector{v, pfv.MustNew(2, []float64{5, 5}, []float64{2, 2})})
	if wide.LogAccessCost() <= point.LogAccessCost() {
		t.Error("wider box must cost more")
	}
}

func TestNewParamBoxExtendFromEmpty(t *testing.T) {
	b := NewParamBox(2)
	v := pfv.MustNew(1, []float64{3, -1}, []float64{0.5, 0.25})
	b.ExtendVector(v)
	if !b.Equal(BoxOf(v)) {
		t.Errorf("extend-from-empty = %+v", b)
	}
}

// ContainsBox reports whether o lies fully inside b.
func (b ParamBox) ContainsBox(o ParamBox) bool {
	for i := range b.Mu {
		if o.Mu[i].Lo < b.Mu[i].Lo || o.Mu[i].Hi > b.Mu[i].Hi ||
			o.Sigma[i].Lo < b.Sigma[i].Lo || o.Sigma[i].Hi > b.Sigma[i].Hi {
			return false
		}
	}
	return true
}
