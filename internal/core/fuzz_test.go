package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// FuzzNodeCodec fuzzes the on-page node encoding: arbitrary page images
// must either be rejected with an error or decode to a node whose canonical
// re-encoding is stable under a further decode/encode cycle. Corrupt pages
// (truncated entries, unknown kinds, garbage floats) must never panic —
// with per-page checksums a corrupt page should normally be caught below
// this layer, but the decoder is the last line of defense. (The columnar
// body's in-place views are fuzzed against their portable twin in pfv.)
func FuzzNodeCodec(f *testing.F) {
	leaf := &node{leaf: true, vectors: []pfv.Vector{
		pfv.MustNew(1, []float64{0.5, 1.5}, []float64{0.1, 0.2}),
		pfv.MustNew(2, []float64{-3, 2}, []float64{1, 0.5}),
	}}
	inner := &node{children: []childEntry{
		{page: 7, count: 12, box: ParamBox{
			Mu:    []gaussian.Interval{{Lo: 0, Hi: 1}, {Lo: -1, Hi: 2}},
			Sigma: []gaussian.Interval{{Lo: 0.1, Hi: 0.5}, {Lo: 0.2, Hi: 0.9}},
		}},
	}}
	f.Add(mustEncode(f, leaf, 2), uint8(2))
	f.Add([]byte{1, 0, 0}, uint8(2)) // kind 1, the retired v1 row-major leaf
	f.Add(mustEncode(f, inner, 2), uint8(2))
	if q := buildQuantLeaf(LeafFloat32, pfv.ColumnsOf(leaf.vectors, 2), pagefile.DefaultPageSize); q != nil {
		f.Add(mustEncode(f, &node{leaf: true, kind: q.kind, quant: q}, 2), uint8(2))
	}
	if q := buildQuantLeaf(LeafGrid8, pfv.ColumnsOf(leaf.vectors, 2), pagefile.DefaultPageSize); q != nil {
		f.Add(mustEncode(f, &node{leaf: true, kind: q.kind, quant: q}, 2), uint8(2))
	}
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{9, 0, 0}, uint8(1)) // unknown node kind
	f.Add([]byte{3, 0, 0}, uint8(1)) // columnar leaf with truncated header
	f.Add(mustEncode(f, &node{leaf: true, kind: kindSidecar, vectors: leaf.vectors}, 2), uint8(2))
	// A full columnar leaf: no room for the NegLnSigma terms, flag clear.
	full := &node{leaf: true}
	for len(full.vectors) < (pagefile.DefaultPageSize-colHeaderSize)/leafEntrySize(2) {
		full.vectors = append(full.vectors, pfv.MustNew(uint64(len(full.vectors)), []float64{1, 2}, []float64{0.5, 2}))
	}
	f.Add(mustEncode(f, full, 2), uint8(2))
	f.Fuzz(func(t *testing.T, page []byte, dimRaw uint8) {
		dim := int(dimRaw%6) + 1
		n, err := decodeNode(0, page, dim)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if n.vectors != nil {
			t.Fatal("decoded node carries row-major vectors")
		}
		enc, err := encodeNode(n, dim, pagefile.DefaultPageSize)
		if err != nil {
			t.Fatalf("re-encode of decoded node failed: %v", err)
		}
		n2, err := decodeNode(0, enc, dim)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if n2.leaf != n.leaf || n2.entryCount() != n.entryCount() {
			t.Fatalf("round trip changed node shape: leaf %v/%v, entries %d/%d",
				n.leaf, n2.leaf, n.entryCount(), n2.entryCount())
		}
		enc2, err := encodeNode(n2, dim, pagefile.DefaultPageSize)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc2, enc) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// FuzzQuantLeafWidening fuzzes the quantized leaf builders with adversarial
// float64 parameters: whenever buildQuantLeaf accepts a batch, the derived
// conservative intervals must contain every exact value (σ lower bounds
// positive), and the quantized page must decode back to the identical
// intervals. This is the no-false-dismissal invariant of the quantized
// formats, checked from raw bit patterns rather than well-behaved data.
func FuzzQuantLeafWidening(f *testing.F) {
	f.Add(uint64(0x3ff0000000000000), uint64(0x3fb999999999999a), uint64(0xc000000000000000), uint64(0x3f50624dd2f1a9fc))
	f.Add(uint64(0), uint64(1), uint64(0x7fefffffffffffff), uint64(0x0010000000000000))
	f.Add(uint64(0x8000000000000001), uint64(0x0000000000000001), uint64(0x41dfffffffc00000), uint64(0x3e45798ee2308c3a))
	f.Fuzz(func(t *testing.T, mu1, sg1, mu2, sg2 uint64) {
		vals := [4]float64{
			math.Float64frombits(mu1), math.Float64frombits(sg1),
			math.Float64frombits(mu2), math.Float64frombits(sg2),
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		mk := func(mu, sg float64) (pfv.Vector, bool) {
			if !(sg > 0) || math.IsInf(sg, 0) {
				return pfv.Vector{}, false
			}
			v, err := pfv.New(1, []float64{mu}, []float64{sg})
			return v, err == nil
		}
		var vs []pfv.Vector
		if v, ok := mk(vals[0], vals[1]); ok {
			v.ID = 1
			vs = append(vs, v)
		}
		if v, ok := mk(vals[2], vals[3]); ok {
			v.ID = 2
			vs = append(vs, v)
		}
		if len(vs) == 0 {
			return
		}
		cols := pfv.ColumnsOf(vs, 1)
		for _, format := range []LeafFormat{LeafFloat32, LeafGrid8} {
			q := buildQuantLeaf(format, cols, pagefile.DefaultPageSize)
			if q == nil {
				continue // declining is always sound: the leaf stays exact
			}
			for j := range vs {
				mu, sg := cols.Mean[0][j], cols.Sigma[0][j]
				box := entryBox(&q.iv, j, 1)
				if !box.Mu[0].Contains(mu) {
					t.Fatalf("%v: μ=%v outside %v", format, mu, box.Mu[0])
				}
				if !box.Sigma[0].Contains(sg) || !(box.Sigma[0].Lo > 0) {
					t.Fatalf("%v: σ=%v outside %v", format, sg, box.Sigma[0])
				}
			}
			page, err := encodeNode(&node{leaf: true, kind: q.kind, quant: q}, 1, pagefile.DefaultPageSize)
			if err != nil {
				t.Fatalf("%v: encode: %v", format, err)
			}
			dec, err := decodeNode(0, page, 1)
			if err != nil {
				t.Fatalf("%v: decode: %v", format, err)
			}
			for j := range vs {
				if !entryBox(&dec.quant.iv, j, 1).Equal(entryBox(&q.iv, j, 1)) {
					t.Fatalf("%v: decoded intervals differ at %d", format, j)
				}
			}
		}
	})
}
