package gausstree_test

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree"
)

// TestFileReadersMatchMemoryTwin: readers of a file-backed tree whose cache
// holds eight pages, so nearly every node they read is a miss into a
// recycled page image, beside a writer that inserts and deletes. The writer
// applies every mutation to a memory-backed twin too, between two bumps of a
// version counter; a reader that saw the same even version before and after
// asking both trees asked both the same state, and their answers must agree
// in ids and probability bits. Run it under -race; CI loops it beside CPU
// hogs (scripts/stress.sh).
func TestFileReadersMatchMemoryTwin(t *testing.T) {
	const n, mutations, readers = 1500, 120, 2
	file, err := gausstree.New(2, gausstree.Options{Path: filepath.Join(t.TempDir(), "twin"), PageSize: 1024, CacheBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	mem, err := gausstree.New(2, gausstree.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	vs := make([]gausstree.Vector, n)
	for i := range vs {
		vs[i] = seqVector(i)
	}
	for _, tr := range []*gausstree.Tree{file, mem} {
		if err := tr.BulkLoad(vs); err != nil {
			t.Fatal(err)
		}
	}

	var version, checked atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < mutations; i++ {
			version.Add(1)
			for _, tr := range []*gausstree.Tree{file, mem} {
				var err error
				if i%3 == 2 {
					_, err = tr.Delete(seqVector(n + i - 1))
				} else {
					err = tr.Insert(seqVector(n + i))
				}
				if err != nil {
					errs <- err
					return
				}
			}
			version.Add(1)
			// Give the readers a stable state to check before moving on.
			for seen, deadline := checked.Load(), time.Now().Add(100*time.Millisecond); checked.Load() == seen && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := seqVector((r*7919 + i*31) % n)
				ask := func(tr *gausstree.Tree) ([]gausstree.Match, error) {
					if i%2 == 0 {
						return tr.KMostLikely(q, 3)
					}
					return tr.Threshold(q, 0.2)
				}
				before := version.Load()
				got, err := ask(file)
				if err != nil {
					errs <- err
					return
				}
				want, err := ask(mem)
				if err != nil {
					errs <- err
					return
				}
				if version.Load() != before || before%2 != 0 {
					continue // a mutation landed in between
				}
				if diff := sameMatches(got, want); diff != "" {
					errs <- fmt.Errorf("state %d, query %d: file tree and memory twin differ: %s", before/2, q.ID, diff)
					return
				}
				checked.Add(1)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c := checked.Load(); c < mutations/2 {
		t.Fatalf("only %d answers compared over %d mutations", c, mutations)
	}
	if err := file.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// sameMatches reports how two answers differ in ids or probability bits (""
// when they do not).
func sameMatches(a, b []gausstree.Match) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d matches vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Vector.ID != y.Vector.ID || math.Float64bits(x.Probability) != math.Float64bits(y.Probability) ||
			math.Float64bits(x.ProbLow) != math.Float64bits(y.ProbLow) || math.Float64bits(x.ProbHigh) != math.Float64bits(y.ProbHigh) {
			return fmt.Sprintf("match %d: id %d p %v [%v, %v] vs id %d p %v [%v, %v]",
				i, x.Vector.ID, x.Probability, x.ProbLow, x.ProbHigh, y.Vector.ID, y.Probability, y.ProbLow, y.ProbHigh)
		}
	}
	return ""
}
