package gausstree_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree"
)

// TestParallelInsertQueryHammer drives one public Tree with concurrent
// writers (Insert) and readers (KMLIQContext, TIQContext) simultaneously.
// Run under -race this exercises the mutex-guarded page manager, the
// reader-shared decoded page-cache entries and the atomic per-query counters.
func TestParallelInsertQueryHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := randomWorld(rng, 400, 3)
	extra := randomWorld(rng, 200, 3)
	for i := range extra {
		extra[i].ID += 10000
	}
	tree, err := gausstree.New(3, gausstree.Options{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(base); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 32)

	// Two writers splitting the extra vectors between them.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := part; i < len(extra); i += 2 {
				if err := tree.Insert(extra[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Eight readers mixing both query types through the context API.
	var pagesSeen atomic.Uint64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				src := base[r.Intn(len(base))]
				q := gausstree.MustVector(0, src.Mean, src.Sigma)
				if i%2 == 0 {
					_, st, err := tree.KMLIQContext(ctx, q, 3)
					if err != nil {
						errs <- err
						return
					}
					pagesSeen.Add(st.PageAccesses)
				} else {
					_, st, err := tree.TIQContext(ctx, q, 0.4)
					if err != nil {
						errs <- err
						return
					}
					pagesSeen.Add(st.PageAccesses)
				}
			}
		}(int64(g + 100))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if tree.Len() != len(base)+len(extra) {
		t.Errorf("Len = %d, want %d", tree.Len(), len(base)+len(extra))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if pagesSeen.Load() == 0 {
		t.Error("concurrent queries reported zero page accesses")
	}
}

// TestQueryCancellationPrompt proves a cancelled context aborts a query
// promptly with ctx.Err() through every public context-aware entry point.
func TestQueryCancellationPrompt(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vs := randomWorld(rng, 3000, 4)
	tree, err := gausstree.New(4, gausstree.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	q := gausstree.MustVector(0, vs[7].Mean, vs[7].Sigma)

	// Already-cancelled context: not a single node may be expanded.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, st, err := tree.KMLIQContext(ctx, q, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("KMLIQContext: err=%v, want Canceled", err)
	} else if st.NodesVisited != 0 {
		t.Errorf("KMLIQContext expanded %d nodes after cancellation", st.NodesVisited)
	}
	if _, _, err := tree.KMLIQRankedContext(ctx, q, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("KMLIQRankedContext: err=%v, want Canceled", err)
	}
	if _, _, err := tree.TIQContext(ctx, q, 0.2); !errors.Is(err, context.Canceled) {
		t.Errorf("TIQContext: err=%v, want Canceled", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("cancelled queries took %v, want prompt return", took)
	}

	// Deadline in the past behaves the same with DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := tree.TIQContext(dctx, q, 0.2); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err=%v, want DeadlineExceeded", err)
	}
}

// TestQueryStatsReported checks the public stats plumbing end to end: a
// fresh query must report page accesses and early termination on a data set
// the Gauss-tree can prune.
func TestQueryStatsReported(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	vs := randomWorld(rng, 2000, 3)
	tree, err := gausstree.New(3, gausstree.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	src := vs[123]
	q := gausstree.MustVector(0, src.Mean, src.Sigma)
	ms, st, err := tree.KMLIQRankedContext(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d matches", len(ms))
	}
	if st.PageAccesses == 0 || st.NodesVisited == 0 || st.VectorsScored == 0 {
		t.Errorf("empty stats: %+v", st)
	}
	if st.CandidatesRetained != 1 {
		t.Errorf("CandidatesRetained = %d, want 1", st.CandidatesRetained)
	}
	if !st.EarlyTermination {
		t.Error("ranked 1-MLIQ on 2000 clustered vectors should terminate early")
	}
	// The ranked query must touch far fewer pages than the tree holds.
	if int(st.PageAccesses) >= tree.Len()/10 {
		t.Errorf("ranked query touched %d pages on %d vectors: no pruning?", st.PageAccesses, tree.Len())
	}
}
