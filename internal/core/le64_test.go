package core

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// decodePortable is decodeNode with a columnar leaf's words loaded by
// loadLE64Portable instead of loadLE64: every check and every error is
// decodeNode's own, only the two copies are redone one word at a time.
func decodePortable(id pagefile.PageID, page []byte, dim int) (*node, error) {
	n, err := decodeNode(id, page, dim)
	if err != nil || (n.kind != kindLeafCol && n.kind != kindSidecar) {
		return n, err
	}
	c := pfv.NewColumns(dim, n.cols.Len())
	loadLE64Portable(c.IDs, c.Backing(page[3]&flagNegLnSigma != 0), page[colHeaderSize:])
	n.cols = c
	return n, nil
}

// sameColumns requires two batches to agree bit for bit — NaN payloads and
// the sign of zero included — in ids, parameters and both derived families.
func sameColumns(t testing.TB, got, want *pfv.Columns) {
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
	sameBits("params", got.Backing(false), want.Backing(false))
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

// TestLoadLE64MatchesPortable holds the block copy to its portable twin on
// raw words, from a source at every byte alignment.
func TestLoadLE64MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 7, 48} {
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
			ids, params := make([]uint64, n), make([]float64, 2*n)
			pIDs, pParams := make([]uint64, n), make([]float64, 2*n)
			loadLE64(ids, params, src)
			loadLE64Portable(pIDs, pParams, src)
			for i, w := range words {
				fast, portable := math.Float64bits(params[max(i-n, 0)]), math.Float64bits(pParams[max(i-n, 0)])
				if i < n {
					fast, portable = ids[i], pIDs[i]
				}
				if fast != w || portable != w {
					t.Fatalf("n=%d shift=%d word %d: copy %#x, portable %#x, page %#x", n, shift, i, fast, portable, w)
				}
			}
		}
	}
	if !hostLittleEndian {
		t.Log("big-endian host: loadLE64 is the portable loop")
	}
}

// TestBlockCopyDecodeMatchesPortable: a columnar page decodes to the same
// node through the two block copies and through the portable word loop —
// for leaves and sidecars, with the stored −ln∏σ terms (flagNegLnSigma) and
// without, at counts 0, 1 and a full page, over parameters that include
// every awkward bit pattern. The lazily derived families are compared too,
// so first-use derivation over copied and over converted columns agrees.
func TestBlockCopyDecodeMatchesPortable(t *testing.T) {
	const dim = 3
	rng := rand.New(rand.NewSource(29))
	full := (pagefile.DefaultPageSize - colHeaderSize) / leafEntrySize(dim)
	for _, kind := range []byte{kindLeafCol, kindSidecar} {
		for _, count := range []int{0, 1, 5, full} {
			for _, stored := range []bool{false, true} {
				src := pfv.NewColumns(dim, count)
				for j := range src.IDs {
					src.IDs[j] = rng.Uint64()
				}
				raw := src.Backing(false)
				for j := range raw {
					raw[j] = math.Float64frombits(rng.Uint64())
					if j%2 == 0 {
						raw[j] = math.Float64frombits(awkwardWords[rng.Intn(len(awkwardWords))])
					}
				}
				pageSize := colHeaderSize + count*leafEntrySize(dim) // no room for the terms
				if stored {
					pageSize += 8 * count
				}
				page, err := encodeColumnarLeaf(src, kind, pageSize)
				if err != nil {
					t.Fatal(err)
				}
				if got := page[3]&flagNegLnSigma != 0; got != stored && count > 0 {
					t.Fatalf("kind %d count %d: flagNegLnSigma %v, want %v", kind, count, got, stored)
				}
				fast, err := decodeNode(4, page, dim)
				if err != nil {
					t.Fatal(err)
				}
				portable, err := decodePortable(4, page, dim)
				if err != nil {
					t.Fatal(err)
				}
				if fast.kind != kind || portable.kind != kind || !fast.leaf {
					t.Fatalf("decoded kinds %d/%d, want %d", fast.kind, portable.kind, kind)
				}
				sameColumns(t, fast.cols, portable.cols)
				sameColumns(t, fast.cols, src)
				// Neither decoded form aliases the page (the DecodeFunc contract).
				for i := range page {
					page[i] ^= 0xff
				}
				sameColumns(t, fast.cols, src)
			}
		}
	}
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
// is the parent's byte for byte (the shard golden and
// testdata/legacy-rowleaf-v1.gtree are older writers' output still).
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
