package pfv

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// decodePortable is DecodeColumns on the portable word loop whatever the
// host: every check and every error is DecodeColumns' own.
func decodePortable(src []byte, dim, n int, withNegLn bool) (*Columns, error) {
	return decodeColumns(src, dim, n, withNegLn, false)
}

// sameColumns requires two batches to agree bit for bit — NaN payloads and
// the sign of zero included — in ids, parameters and both derived families.
func sameColumns(t testing.TB, got, want *Columns) {
	t.Helper()
	if got.Len() != want.Len() || got.Dim() != want.Dim() {
		t.Fatalf("shape %d×%d, want %d×%d", got.Len(), got.Dim(), want.Len(), want.Dim())
	}
	for j, id := range want.IDs {
		if got.IDs[j] != id {
			t.Fatalf("id %d: %#x, want %#x", j, got.IDs[j], id)
		}
	}
	sameBits := func(what string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %d values, want %d", what, len(g), len(w))
		}
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s[%d]: %#x, want %#x", what, j, math.Float64bits(g[j]), math.Float64bits(w[j]))
			}
		}
	}
	sameBits("params", got.params, want.params)
	sameBits("NegLnSigma", got.NegLnSigma(), want.NegLnSigma())
	gLo, gHi := got.SigmaRange()
	wLo, wHi := want.SigmaRange()
	sameBits("σ minima", gLo, wLo)
	sameBits("σ maxima", gHi, wHi)
}

// awkwardWords are bit patterns a conversion could mangle and a copy cannot:
// quiet and signalling NaNs with payloads, −0, subnormals, infinities.
var awkwardWords = []uint64{
	0x7ff8000000000001, 0x7ff0000000000001, 0xfff8deadbeef0000, 0x7ff4000000000000,
	0x8000000000000000, 0x0000000000000001, 0x800fffffffffffff, 0x000fffffffffffff,
	0x7ff0000000000000, 0xfff0000000000000, 0, 0x0102030405060708,
}

// TestLoadLE64MatchesPortable holds the in-place view to its portable twin
// on raw words, from a source at every byte alignment.
func TestLoadLE64MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 7, 48} {
		for shift := 0; shift < 8; shift++ {
			words := make([]uint64, 3*n)
			for i := range words {
				words[i] = rng.Uint64()
				if i%3 == 0 {
					words[i] = awkwardWords[rng.Intn(len(awkwardWords))]
				}
			}
			src := make([]byte, shift, shift+8*len(words)+5)
			for _, w := range words {
				src = binary.LittleEndian.AppendUint64(src, w)
			}
			src = append(src, 1, 2, 3, 4, 5)[shift:] // trailing bytes neither may read as words
			pIDs, pParams := make([]uint64, n), make([]float64, 2*n)
			loadLE64Portable(pIDs, pParams, src)
			ids, params := pIDs, pParams
			if hostViews {
				ids, params = viewLE64(src, n, 2*n)
				if len(params) != 2*n || cap(ids) != n || cap(params) != 2*n {
					t.Fatalf("n=%d shift=%d: views of %d ids (cap %d) and %d params (cap %d)", n, shift, len(ids), cap(ids), len(params), cap(params))
				}
			}
			for i, w := range words {
				view, portable := math.Float64bits(params[max(i-n, 0)]), math.Float64bits(pParams[max(i-n, 0)])
				if i < n {
					view, portable = ids[i], pIDs[i]
				}
				if view != w || portable != w {
					t.Fatalf("n=%d shift=%d word %d: view %#x, portable %#x, page %#x", n, shift, i, view, portable, w)
				}
			}
		}
	}
	if !hostViews {
		t.Logf("%s host: decoding is the portable loop", runtime.GOARCH)
	}
}

// TestBlockCopyDecodeMatchesPortable: a columnar body decodes to the same
// batch in place and through the portable word loop — with the stored
// −ln∏σ terms and without, at counts 0, 1, 5 and a full 8 KiB page, over
// parameters that include every awkward bit pattern. The lazily derived
// families are compared too, so first-use derivation over viewed and over
// converted columns agrees. Where the host takes views the fast decode's
// ids and columns lie inside the body; the portable decode never aliases it.
func TestBlockCopyDecodeMatchesPortable(t *testing.T) {
	const dim = 3
	rng := rand.New(rand.NewSource(29))
	full := 8192 / EncodedSize(dim)
	for _, count := range []int{0, 1, 5, full} {
		for _, stored := range []bool{false, true} {
			src := NewColumns(dim, count)
			for j := range src.IDs {
				src.IDs[j] = rng.Uint64()
			}
			raw := src.params
			for j := range raw {
				raw[j] = math.Float64frombits(rng.Uint64())
				if j%2 == 0 {
					raw[j] = math.Float64frombits(awkwardWords[rng.Intn(len(awkwardWords))])
				}
			}
			body := AppendColumns(nil, src, stored)
			if len(body) != ColumnsSize(dim, count, stored) {
				t.Fatalf("count %d stored %v: body of %d bytes, ColumnsSize %d", count, stored, len(body), ColumnsSize(dim, count, stored))
			}
			fast, err := DecodeColumns(body, dim, count, stored)
			if err != nil {
				t.Fatal(err)
			}
			portable, err := decodePortable(body, dim, count, stored)
			if err != nil {
				t.Fatal(err)
			}
			sameColumns(t, fast, portable)
			sameColumns(t, fast, src)
			if count > 0 && hostViews {
				lo := reflect.ValueOf(body).Pointer()
				views := []any{fast.IDs, fast.Mean[0], fast.Sigma[dim-1]}
				if stored {
					views = append(views, fast.NegLnSigma())
				}
				for k, v := range views {
					if p := reflect.ValueOf(v).Pointer(); p < lo || p >= lo+uintptr(len(body)) {
						t.Errorf("count %d stored %v: run %d of the fast decode lies outside the body", count, stored, k)
					}
				}
			}
			// The portable decode does not alias the body: rewriting the
			// body leaves it as encoded, while a view sees the rewrite.
			for i := range body {
				body[i] ^= 0xff
			}
			sameColumns(t, portable, src)
			if count > 0 && hostViews && fast.IDs[0] != ^src.IDs[0] {
				t.Errorf("count %d stored %v: a view does not see its body", count, stored)
			}
			if count > 0 {
				if _, err := DecodeColumns(body[:len(body)-1], dim, count, stored); err == nil {
					t.Errorf("count %d stored %v: a truncated body decoded", count, stored)
				}
			}
		}
	}
}

// FuzzColumnsCodec fuzzes the columnar page body: arbitrary bytes must be
// rejected by the block-copy decoder and its portable twin alike, or decode
// through both to the same batch bit for bit, whose re-encoding reproduces
// the accepted prefix exactly.
func FuzzColumnsCodec(f *testing.F) {
	two := ColumnsOf([]Vector{
		MustNew(1, []float64{0.5, 1.5}, []float64{0.1, 0.2}),
		MustNew(2, []float64{-3, 2}, []float64{1, 0.5}),
	}, 2)
	f.Add(AppendColumns(nil, two, false), uint8(2), uint8(2), false)
	f.Add(AppendColumns(nil, two, true), uint8(2), uint8(2), true)
	f.Add([]byte{}, uint8(1), uint8(0), false)
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint8(1), uint8(2), true)
	f.Fuzz(func(t *testing.T, body []byte, dimRaw, nRaw uint8, withNegLn bool) {
		dim, n := int(dimRaw%6)+1, int(nRaw%8)
		c, err := DecodeColumns(body, dim, n, withNegLn)
		p, perr := decodePortable(body, dim, n, withNegLn)
		if (err == nil) != (perr == nil) {
			t.Fatalf("block-copy decode: %v, portable decode: %v", err, perr)
		}
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		sameColumns(t, c, p)
		need := ColumnsSize(dim, n, withNegLn)
		if enc := AppendColumns(nil, c, withNegLn); !bytes.Equal(enc, body[:need]) {
			t.Fatalf("encode(decode(x)) != x:\n got %x\nwant %x", enc, body[:need])
		}
	})
}
