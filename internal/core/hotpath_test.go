package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree/internal/fault"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

// hotPathWorld builds a reference tree plus expected results for a query
// set, for comparing against concurrent and post-mutation runs.
type hotPathWorld struct {
	tree *Tree
	qs   []pfv.Vector
}

func buildHotPathWorld(t *testing.T, n int) *hotPathWorld {
	t.Helper()
	tr := buildPerfTree(t, n, 4)
	rng := rand.New(rand.NewSource(7))
	qs := make([]pfv.Vector, 32)
	for i := range qs {
		qs[i] = randomVec(rng, uint64(1_000_000+i), 4)
	}
	return &hotPathWorld{tree: tr, qs: qs}
}

// resultKey flattens a result list into a comparable string (ids, exact
// densities and probability bounds).
func resultKey(rs []query.Result) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%d:%x:%x:%x;", r.Vector.ID, math.Float64bits(r.LogDensity),
			math.Float64bits(r.ProbLow), math.Float64bits(r.ProbHigh))
	}
	return s
}

// TestConcurrentHotQueryHammer floods one tree with concurrent hot queries
// (all three query types, fully cached after the first pass) from many
// goroutines and checks every result against the single-threaded reference.
// Run under -race this exercises the sharded page cache and its shared
// decoded nodes and the pooled traversal state; afterwards it verifies no
// goroutines leaked.
func TestConcurrentHotQueryHammer(t *testing.T) {
	before := runtime.NumGoroutine()
	w := buildHotPathWorld(t, 3000)
	ctx := context.Background()

	type want struct{ ranked, refined, tiq string }
	wants := make([]want, len(w.qs))
	for i, q := range w.qs {
		r1, _, err := w.tree.KMLIQRanked(ctx, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		r2, _, err := w.tree.KMLIQ(ctx, q, 3, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		r3, _, err := w.tree.TIQ(ctx, q, 0.5, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{resultKey(r1), resultKey(r2), resultKey(r3)}
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				qi := rng.Intn(len(w.qs))
				q := w.qs[qi]
				switch rng.Intn(3) {
				case 0:
					rs, _, err := w.tree.KMLIQRanked(ctx, q, 3)
					if err != nil {
						errs <- err
						return
					}
					if got := resultKey(rs); got != wants[qi].ranked {
						errs <- fmt.Errorf("concurrent ranked result diverged for query %d", qi)
						return
					}
				case 1:
					rs, _, err := w.tree.KMLIQ(ctx, q, 3, 1e-4)
					if err != nil {
						errs <- err
						return
					}
					if got := resultKey(rs); got != wants[qi].refined {
						errs <- fmt.Errorf("concurrent refined result diverged for query %d", qi)
						return
					}
				default:
					rs, _, err := w.tree.TIQ(ctx, q, 0.5, 1e-4)
					if err != nil {
						errs <- err
						return
					}
					if got := resultKey(rs); got != wants[qi].tiq {
						errs <- fmt.Errorf("concurrent TIQ result diverged for query %d", qi)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Goroutine-leak check: queries spawn no goroutines, so the count must
	// settle back to (at most) where it started, modulo runtime helpers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMutationInvalidationConformance is the correctness contract of the
// decoded nodes the page cache holds: after arbitrary mutations (inserts and deletes on a
// warm, fully cached tree), queries must return results identical to a
// freshly opened tree over the same page file — i.e. no stale cached node
// can survive a copy-on-write rewrite or free.
func TestMutationInvalidationConformance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "invalidate.gtree")
	fb, err := pagefile.CreateFile(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pagefile.NewManager(fb, 2048)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	vs := make([]pfv.Vector, 600)
	for i := range vs {
		vs[i] = randomVec(rng, uint64(i), 3)
	}
	if err := tr.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}

	qs := make([]pfv.Vector, 16)
	for i := range qs {
		qs[i] = randomVec(rng, uint64(5000+i), 3)
	}
	ctx := context.Background()
	warm := func(tree *Tree) {
		for _, q := range qs {
			if _, _, err := tree.KMLIQ(ctx, q, 3, 1e-6); err != nil {
				t.Fatal(err)
			}
			if _, _, err := tree.TIQ(ctx, q, 0.3, 1e-6); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm(tr) // populate both cache layers

	// Mutate: delete a third of the vectors, insert replacements — plenty of
	// copy-on-write rewrites, page frees and reallocations.
	for i := 0; i < len(vs); i += 3 {
		found, err := tr.Delete(vs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("vector %d not found for delete", vs[i].ID)
		}
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(randomVec(rng, uint64(20000+i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Open an independent, cache-cold view of the same committed state.
	fb2, err := pagefile.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mgr2, err := pagefile.NewManager(fb2, fb2.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	fresh, err := Open(mgr2)
	if err != nil {
		t.Fatal(err)
	}

	for qi, q := range qs {
		gotR, _, err := tr.KMLIQ(ctx, q, 5, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		wantR, _, err := fresh.KMLIQ(ctx, q, 5, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(gotR) != resultKey(wantR) {
			t.Errorf("query %d: warm KMLIQ diverged from freshly opened tree", qi)
		}
		gotT, _, err := tr.TIQ(ctx, q, 0.3, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		wantT, _, err := fresh.TIQ(ctx, q, 0.3, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(gotT) != resultKey(wantT) {
			t.Errorf("query %d: warm TIQ diverged from freshly opened tree", qi)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedMutationDropsDecodedCache: a mutation that dies mid-flight has
// edited nodes ahead of copy-on-write page writes that never happened. Those
// edits are on its own clones, never on the cached decoded nodes, so the
// poisoned tree must serve queries from the intact committed pages —
// identical to a freshly attached manager over the same backend — not from
// the orphaned in-memory edits.
func TestFailedMutationDropsDecodedCache(t *testing.T) {
	inner := pagefile.NewMemBackend(2048)
	inj := fault.New()
	mgr, err := pagefile.NewManager(fault.WrapBackend(inner, inj), 2048)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	vs := make([]pfv.Vector, 400)
	for i := range vs {
		vs[i] = randomVec(rng, uint64(i), 3)
	}
	if err := tr.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	qs := make([]pfv.Vector, 8)
	for i := range qs {
		qs[i] = randomVec(rng, uint64(7000+i), 3)
	}
	ctx := context.Background()
	for _, q := range qs { // warm the page cache
		if _, _, err := tr.KMLIQ(ctx, q, 3, 1e-6); err != nil {
			t.Fatal(err)
		}
	}

	// One write succeeds (the rewritten leaf), the next (its parent) fails:
	// the cached leaf and parent have been edited in place by then.
	writeBudget(t, inj, 1, false)
	if err := tr.Insert(randomVec(rng, 99999, 3)); err == nil {
		t.Fatal("insert with exhausted write budget should fail")
	}
	if err := tr.Insert(randomVec(rng, 99998, 3)); err == nil {
		t.Fatal("poisoned tree must refuse further mutations")
	}
	inj.Disarm()

	// Reference: the committed state, re-decoded by an independent manager
	// over the same backend.
	mgr2, err := pagefile.NewManager(inner, 2048)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(mgr2)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		got, _, err := tr.KMLIQ(ctx, q, 3, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.KMLIQ(ctx, q, 3, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(got) != resultKey(want) {
			t.Errorf("query %d: poisoned tree diverged from committed state", qi)
		}
	}
}
