package gausstree_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree"
)

// walkable adds the calls the aliasing test needs to the query surface Tree
// and Sharded share.
type walkable interface {
	queryable
	Insert(gausstree.Vector) error
	ForEach(func(gausstree.Vector) error) error
	CheckInvariants() error
	Scrub(context.Context, gausstree.ScrubOptions) (gausstree.ScrubReport, error)
}

// TestResultsDoNotAliasTheIndex: what a query or ForEach returns belongs to
// the caller. Scribbling over every returned slice must not reach the
// index's cached leaves — the repeated call answers identically. (Results
// used to share the cached leaf's slices: one `m[0].Vector.Mean[0] = 1e6`
// rewrote the stored object for every later query.) A cached leaf is a view
// of its page image, which a memory-backed index also keeps as its store, so
// an aliasing bug would rewrite the index itself: after the scribbles the
// index must still pass CheckInvariants and Scrub, and ForEach must still
// see the vectors inserted. The file-backed layouts are closed and reopened
// first, so every leaf they read comes from a cache miss's image.
func TestResultsDoNotAliasTheIndex(t *testing.T) {
	dir := t.TempDir()
	layouts := map[string]func(reopen bool) (walkable, error){
		"tree":     func(bool) (walkable, error) { return gausstree.New(3) },
		"sharded4": func(bool) (walkable, error) { return gausstree.NewSharded(3, 4) },
		"tree-file": func(reopen bool) (walkable, error) {
			path := filepath.Join(dir, "tree.gt")
			if reopen {
				return gausstree.Open(path)
			}
			return gausstree.New(3, gausstree.Options{Path: path})
		},
		"sharded4-file": func(reopen bool) (walkable, error) {
			path := filepath.Join(dir, "sharded")
			if reopen {
				return gausstree.OpenSharded(path)
			}
			return gausstree.NewSharded(3, 4, gausstree.Options{Path: path})
		},
	}
	for name, open := range layouts {
		idx, err := open(false)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		vec := func(id uint64) gausstree.Vector {
			return gausstree.MustVector(id,
				[]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
				[]float64{0.2 + rng.Float64(), 0.2 + rng.Float64(), 0.2 + rng.Float64()})
		}
		for id := uint64(1); id <= 200; id++ {
			if err := idx.Insert(vec(id)); err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasSuffix(name, "-file") {
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}
			if idx, err = open(true); err != nil {
				t.Fatal(err)
			}
		}
		stored := forEachDigest(t, idx)
		q := vec(1000)
		calls := map[string]func() ([]gausstree.Match, error){
			"KMLIQ":       func() ([]gausstree.Match, error) { return idx.KMostLikely(q, 5) },
			"KMLIQRanked": func() ([]gausstree.Match, error) { return idx.KMostLikelyRanked(q, 5) },
			"TIQ":         func() ([]gausstree.Match, error) { return idx.Threshold(q, 0.01) },
			"ForEach": func() ([]gausstree.Match, error) {
				var ms []gausstree.Match
				err := idx.ForEach(func(v gausstree.Vector) error {
					ms = append(ms, gausstree.Match{Vector: v})
					return nil
				})
				return ms, err
			},
		}
		for op, call := range calls {
			first, err := call()
			if err != nil {
				t.Fatal(err)
			}
			if len(first) == 0 {
				t.Fatalf("%s %s: no results to scribble on", name, op)
			}
			want := fmt.Sprintf("%v", first)
			for _, m := range first {
				for i := range m.Vector.Mean {
					m.Vector.Mean[i], m.Vector.Sigma[i] = 1e6, 1e-6
				}
			}
			again, err := call()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%v", again); got != want {
				t.Errorf("%s %s: answer changed after the caller wrote to the previous one\nfirst: %s\nagain: %s", name, op, want, got)
			}
			if reflect.ValueOf(first[0].Vector.Mean).Pointer() == reflect.ValueOf(again[0].Vector.Mean).Pointer() {
				t.Errorf("%s %s: two calls returned the same backing array", name, op)
			}
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Errorf("%s: CheckInvariants after the scribbles: %v", name, err)
		}
		if _, err := idx.Scrub(context.Background(), gausstree.ScrubOptions{}); err != nil {
			t.Errorf("%s: Scrub after the scribbles: %v", name, err)
		}
		if got := forEachDigest(t, idx); got != stored {
			t.Errorf("%s: the stored vectors changed under the scribbles", name)
		}
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// forEachDigest hashes every vector ForEach yields — id and the bits of
// every parameter — in the order it yields them.
func forEachDigest(t *testing.T, idx walkable) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	var word [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	err := idx.ForEach(func(v gausstree.Vector) error {
		put(v.ID)
		for i := range v.Mean {
			put(math.Float64bits(v.Mean[i]))
			put(math.Float64bits(v.Sigma[i]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}
