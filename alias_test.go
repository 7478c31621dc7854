package gausstree_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gauss-tree/gausstree"
)

// walkable adds the two calls the aliasing test needs to the query surface
// Tree and Sharded share.
type walkable interface {
	queryable
	Insert(gausstree.Vector) error
	ForEach(func(gausstree.Vector) error) error
}

// TestResultsDoNotAliasTheIndex: what a query or ForEach returns belongs to
// the caller. Scribbling over every returned slice must not reach the
// index's cached leaves — the repeated call answers identically. (Results
// used to share the cached leaf's slices: one `m[0].Vector.Mean[0] = 1e6`
// rewrote the stored object for every later query.)
func TestResultsDoNotAliasTheIndex(t *testing.T) {
	tree, err := gausstree.New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	sharded, err := gausstree.NewSharded(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for name, idx := range map[string]walkable{"tree": tree, "sharded4": sharded} {
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
	}
}
