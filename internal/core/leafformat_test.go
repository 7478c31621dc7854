package core

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// TestEncodeNodeRejectsOversizedCounts is the regression test for the
// formerly unchecked uint16/uint32 casts in the node encoders: a node whose
// entry count or subtree count does not fit its on-page field must be
// refused with an error, never silently truncated.
func TestEncodeNodeRejectsOversizedCounts(t *testing.T) {
	big := &node{leaf: true, vectors: make([]pfv.Vector, maxNodeEntries+1)}
	for j := range big.vectors {
		big.vectors[j] = pfv.MustNew(uint64(j+1), []float64{0}, []float64{1})
	}
	if _, err := encodeNode(big, 1, pagefile.DefaultPageSize); err == nil {
		t.Fatal("columnar leaf with more than maxNodeEntries vectors encoded without error")
	}

	inner := &node{children: []childEntry{{
		page: 7,
		box: ParamBox{
			Mu:    []gaussian.Interval{{Lo: 0, Hi: 1}},
			Sigma: []gaussian.Interval{{Lo: 0.1, Hi: 0.5}},
		},
	}}}
	if strconv.IntSize == 64 { // a count beyond uint32 needs a 64-bit int
		over := uint64(math.MaxUint32) + 1
		inner.children[0].count = int(over)
		if _, err := encodeNode(inner, 1, pagefile.DefaultPageSize); err == nil {
			t.Fatal("inner node with subtree count beyond uint32 encoded without error")
		}
	}
	inner.children[0].count = -1
	if _, err := encodeNode(inner, 1, pagefile.DefaultPageSize); err == nil {
		t.Fatal("inner node with negative subtree count encoded without error")
	}
}

// TestQuantIntervalContainment is the soundness property every quantized
// format must satisfy: the conservative interval derived from the stored
// quantized value always contains the exact value, with σ lower bounds
// clamped positive. §5.2.2 certification and the no-false-dismissal
// guarantee both stand on this.
func TestQuantIntervalContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20000; trial++ {
		x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		lo, hi := f32Interval(float32(x), false)
		if !(lo <= x && x <= hi) {
			t.Fatalf("f32Interval(%v) = [%v,%v] does not contain the value", x, lo, hi)
		}
		s := math.Abs(x) + 1e-12
		lo, hi = f32Interval(float32(s), true)
		if !(lo <= s && s <= hi) || lo <= 0 {
			t.Fatalf("f32Interval σ(%v) = [%v,%v] broken", s, lo, hi)
		}
	}
	for trial := 0; trial < 20000; trial++ {
		min := rng.NormFloat64() * 10
		max := min + rng.Float64()*100
		x := min + rng.Float64()*(max-min)
		c, ok := gridFit(min, max, x, false)
		if !ok {
			t.Fatalf("gridFit(%v,%v,%v) found no covering cell", min, max, x)
		}
		lo, hi := gridInterval(min, max, c, false)
		if !(lo <= x && x <= hi) {
			t.Fatalf("gridInterval(%v,%v,%d) = [%v,%v] does not contain %v", min, max, c, lo, hi, x)
		}
	}
	// Degenerate grid: all values identical (step == 0).
	if c, ok := gridFit(3.5, 3.5, 3.5, false); !ok {
		t.Fatal("gridFit on a zero-width range found no cell")
	} else if lo, hi := gridInterval(3.5, 3.5, c, false); !(lo <= 3.5 && 3.5 <= hi) {
		t.Fatalf("zero-width gridInterval [%v,%v] misses the value", lo, hi)
	}
}

// TestBuildQuantLeafWidening builds quantized leaves over random batches and
// checks the derived parameter intervals contain every exact value — the
// invariant buildQuantLeaf is documented to verify value-by-value.
func TestBuildQuantLeafWidening(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, format := range []LeafFormat{LeafFloat32, LeafGrid8} {
		for trial := 0; trial < 50; trial++ {
			n, dim := rng.Intn(60)+1, rng.Intn(5)+1
			vs := clusteredVectors(rng, n, dim, 3)
			cols := pfv.ColumnsOf(vs, dim)
			q := buildQuantLeaf(format, cols, pagefile.DefaultPageSize)
			if q == nil {
				t.Fatalf("%v trial %d: buildQuantLeaf declined a coverable batch", format, trial)
			}
			for j := 0; j < n; j++ {
				box := entryBox(&q.iv, j, dim)
				for i := 0; i < dim; i++ {
					mu, sg := cols.Mean[i][j], cols.Sigma[i][j]
					if !box.Mu[i].Contains(mu) {
						t.Fatalf("%v: μ[%d][%d]=%v outside %v", format, i, j, mu, box.Mu[i])
					}
					if !box.Sigma[i].Contains(sg) || box.Sigma[i].Lo <= 0 {
						t.Fatalf("%v: σ[%d][%d]=%v outside %v", format, i, j, sg, box.Sigma[i])
					}
				}
			}
			// The quantized page must round-trip: decode of the encoding
			// derives the identical intervals (the traversal scores decoded
			// pages, the encoder verified containment — they must agree).
			page, err := encodeNode(&node{leaf: true, kind: q.kind, quant: q}, dim, pagefile.DefaultPageSize)
			if err != nil {
				t.Fatalf("%v: encode: %v", format, err)
			}
			dec, err := decodeNode(1, page, dim)
			if err != nil {
				t.Fatalf("%v: decode: %v", format, err)
			}
			for j := 0; j < n; j++ {
				if !entryBox(&dec.quant.iv, j, dim).Equal(entryBox(&q.iv, j, dim)) {
					t.Fatalf("%v: decoded intervals differ at vector %d", format, j)
				}
			}
		}
	}
}

// buildFormatTree builds a tree with the given leaf format over vs.
func buildFormatTree(t *testing.T, vs []pfv.Vector, dim, pageSize int, format LeafFormat) *Tree {
	t.Helper()
	mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(pageSize), pageSize)
	tr, err := New(mgr, dim, Config{LeafFormat: format})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%v tree invariants: %v", format, err)
	}
	return tr
}

// TestCrossFormatConformance compares the exact columnar tree against both
// quantized formats on identical data: ranked answer sets must be identical
// (quantization must never cause a false dismissal or a rank flip — the
// sidecar re-scores survivors exactly), and every certified probability
// interval of a quantized tree must contain the exact engine's true
// probability.
func TestCrossFormatConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	dim := 3
	vs := clusteredVectors(rng, 700, dim, 6)
	exact, sf := buildPair(t, vs, dim, 2048, Config{})
	f32 := buildFormatTree(t, vs, dim, 2048, LeafFloat32)
	grid := buildFormatTree(t, vs, dim, 2048, LeafGrid8)
	ctx := context.Background()

	for trial := 0; trial < 30; trial++ {
		q := reobserved(rng, vs[rng.Intn(len(vs))])
		k := rng.Intn(6) + 1

		want, _, err := exact.KMLIQRanked(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*Tree{f32, grid} {
			got, _, err := tr.KMLIQRanked(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v trial %d: %d ranked results, want %d", tr.cfg.LeafFormat, trial, len(got), len(want))
			}
			for i := range want {
				if got[i].Vector.ID != want[i].Vector.ID {
					t.Fatalf("%v trial %d rank %d: id %d, exact %d",
						tr.cfg.LeafFormat, trial, i, got[i].Vector.ID, want[i].Vector.ID)
				}
			}
		}

		truth, _, err := sf.KMLIQ(ctx, q, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*Tree{exact, f32, grid} {
			rs, _, err := tr.KMLIQ(ctx, q, k, 1e-4)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				p := truth[i].Probability
				if !(r.ProbLow <= p+1e-12 && p <= r.ProbHigh+1e-12) {
					t.Fatalf("%v trial %d rank %d: certified [%v,%v] misses true probability %v",
						tr.cfg.LeafFormat, trial, i, r.ProbLow, r.ProbHigh, p)
				}
				// The accuracy promise is exact-format only: quantized
				// trees carry an irreducible denominator residue from
				// interval-scored leaves and report the honestly widened
				// interval instead of pretending to meet the target.
				if tr.cfg.LeafFormat == LeafExact && r.ProbHigh-r.ProbLow > 1e-4+1e-12 {
					t.Fatalf("exact trial %d rank %d: interval width %v exceeds the requested accuracy",
						trial, i, r.ProbHigh-r.ProbLow)
				}
			}
		}
	}
}

// TestQuantizedMutationPaths exercises insert/delete/bulk-load on quantized
// trees: mutations materialize exact payloads from the sidecar, re-quantize
// on write-back, and must keep invariants and query answers intact.
func TestQuantizedMutationPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	dim := 2
	vs := clusteredVectors(rng, 400, dim, 4)
	for _, format := range []LeafFormat{LeafFloat32, LeafGrid8} {
		tr := buildFormatTree(t, vs, dim, 1024, format)
		for i := 0; i < 50; i++ {
			ok, err := tr.Delete(vs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%v: vector %d not found for delete", format, i)
			}
		}
		extra := clusteredVectors(rng, 80, dim, 2)
		if _, err := tr.InsertAll(extra); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%v after mutations: %v", format, err)
		}
		if got, want := tr.Len(), len(vs)-50+len(extra); got != want {
			t.Fatalf("%v: Len %d, want %d", format, got, want)
		}
		// A surviving original and a fresh insert must both be findable.
		for _, probe := range []pfv.Vector{vs[60], extra[0]} {
			q := reobserved(rng, probe)
			if _, _, err := tr.KMLIQRanked(context.Background(), q, 3); err != nil {
				t.Fatal(err)
			}
		}

		mgr2, _ := pagefile.NewManager(pagefile.NewMemBackend(1024), 1024)
		bl, err := New(mgr2, dim, Config{LeafFormat: format})
		if err != nil {
			t.Fatal(err)
		}
		if err := bl.BulkLoad(vs); err != nil {
			t.Fatal(err)
		}
		if err := bl.CheckInvariants(); err != nil {
			t.Fatalf("%v bulk load: %v", format, err)
		}
	}
}
