package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/client"
	"github.com/gauss-tree/gausstree/internal/server"
)

// chaosTypedError requires a failed request to have died a typed death:
// an *APIError carrying one of the documented rejection codes, never a
// transport failure or an unexplained status.
func chaosTypedError(err error) error {
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		return fmt.Errorf("untyped failure: %v", err)
	}
	switch apiErr.Code {
	case "degraded", "poisoned", "closed", "internal", "deadline", "saturated":
		return nil
	}
	return fmt.Errorf("unexpected rejection code %q: %v", apiErr.Code, err)
}

// chaosSchedules is the deterministic fault storm: each round arms one
// bounded misbehavior class long enough for concurrent traffic to trip over
// it. MaxFaults caps keep every round recoverable, and the fixed seeds make
// a failure reproducible from the test log alone.
func chaosSchedules() []gausstree.FaultSchedule {
	r := func(op gausstree.FaultOp, rule gausstree.FaultRule) map[gausstree.FaultOp]gausstree.FaultRule {
		return map[gausstree.FaultOp]gausstree.FaultRule{op: rule}
	}
	return []gausstree.FaultSchedule{
		{Seed: 101, Ops: r(gausstree.FaultOpWALWrite, gausstree.FaultRule{Prob: 0.5, MaxFaults: 2})},
		{Seed: 102, Ops: r(gausstree.FaultOpPageWrite, gausstree.FaultRule{Prob: 0.5, MaxFaults: 2})},
		{Seed: 103, Ops: r(gausstree.FaultOpPageWrite, gausstree.FaultRule{Prob: 0.5, MaxFaults: 1, Torn: true})},
		{Seed: 104, Ops: r(gausstree.FaultOpWALSync, gausstree.FaultRule{Prob: 0.5, MaxFaults: 2})},
		{Seed: 105, Ops: r(gausstree.FaultOpMetaWrite, gausstree.FaultRule{Prob: 0.5, MaxFaults: 1})},
		{Seed: 106, Ops: r(gausstree.FaultOpPageRead, gausstree.FaultRule{LatencyMS: 1})},
		{Seed: 107, Ops: map[gausstree.FaultOp]gausstree.FaultRule{
			gausstree.FaultOpWALWrite:  {Prob: 0.3, MaxFaults: 1},
			gausstree.FaultOpPageWrite: {Prob: 0.3, MaxFaults: 1, Torn: true},
		}},
	}
}

// TestChaosHarness is the end-to-end fault storm: a file-backed daemon with
// the supervisor and scrubber armed serves concurrent queries and mutations
// while randomized-but-bounded fault schedules repeatedly break its storage.
// Invariants checked:
//
//  1. every request either succeeds or fails with a typed, documented error;
//  2. every acknowledged insert survives to the final reopened index
//     (no acknowledged write is ever lost, across any number of heals);
//  3. the daemon converges back to healthy once the storm stops;
//  4. no goroutines leak across all the recovery swaps.
func TestChaosHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault storm")
	}
	goroutinesBefore := runtime.NumGoroutine()

	dir := t.TempDir()
	path := filepath.Join(dir, "chaos.gtree")
	inj := gausstree.NewFaultInjector()
	opts := gausstree.Options{Path: path, PageSize: 1024, Fault: inj, CommitLatency: 200 * time.Microsecond}
	tree, err := gausstree.New(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	const seeded = 150
	for i := 0; i < seeded; i++ {
		if err := tree.Insert(seqVector(i)); err != nil {
			t.Fatal(err)
		}
	}

	srv := server.New(server.TreeIndex(tree), server.Config{
		RecoveryBase:  2 * time.Millisecond,
		RecoveryMax:   50 * time.Millisecond,
		ScrubInterval: 25 * time.Millisecond,
		ScrubRate:     -1, // unthrottled: many passes during the storm
		Reopen: func() (server.Index, error) {
			tr, err := gausstree.Open(path, opts)
			if err != nil {
				return nil, err
			}
			return server.TreeIndex(tr), nil
		},
	})
	hs := httptest.NewServer(srv.Handler())
	cl, err := client.New(hs.URL, client.Options{RetryBase: 2 * time.Millisecond, MaxRetries: 10, RetryBudget: -1})
	if err != nil {
		t.Fatal(err)
	}

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		ackedMu  sync.Mutex
		acked    = map[uint64]bool{}
		failMu   sync.Mutex
		failures []string
	)
	noteFailure := func(kind string, err error) {
		failMu.Lock()
		defer failMu.Unlock()
		if len(failures) < 20 {
			failures = append(failures, kind+": "+err.Error())
		}
	}

	// Query workers: answers must be correct-or-typed, never garbage.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(seeded)
				v := seqVector(i)
				ms, _, err := cl.KMLIQ(context.Background(), v, 1)
				if err != nil {
					if terr := chaosTypedError(err); terr != nil {
						noteFailure("query", terr)
					}
					continue
				}
				// The seeded prefix is never deleted, so an exact re-query
				// must find its own vector — on every snapshot, old or new.
				if len(ms) != 1 || ms[0].Vector.ID != v.ID {
					noteFailure("query", fmt.Errorf("query for id %d returned %v", v.ID, ms))
				}
			}
		}(int64(1000 + w))
	}

	// Mutation workers: disjoint id ranges; an insert counts as acknowledged
	// only when the daemon said so, and acknowledged means durable forever.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := base + i
				v := gausstree.MustVector(id,
					[]float64{float64(id%1000) * 5, float64(id/1000) * 5},
					[]float64{0.2, 0.2})
				n, err := cl.Insert(context.Background(), []gausstree.Vector{v})
				if err != nil {
					if terr := chaosTypedError(err); terr != nil {
						noteFailure("insert", terr)
					}
					// A partial-failure report still acknowledges the prefix;
					// for single-vector batches n==1 means durably applied.
					if n == 1 {
						ackedMu.Lock()
						acked[id] = true
						ackedMu.Unlock()
					}
					continue
				}
				if n == 1 {
					ackedMu.Lock()
					acked[id] = true
					ackedMu.Unlock()
				}
			}
		}(uint64(10_000 * (w + 1)))
	}

	// The fault storm: bounded schedules, one at a time, with heal windows.
	for _, sched := range chaosSchedules() {
		if err := inj.Arm(sched); err != nil {
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond)
		inj.Disarm()
		time.Sleep(30 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	inj.Disarm()
	disarmed := time.Now()

	failMu.Lock()
	for _, f := range failures {
		t.Error(f)
	}
	failMu.Unlock()
	if t.Failed() {
		t.FailNow()
	}

	// Invariant 3: with the storm over, the daemon converges to healthy.
	waitReady(t, cl, 15*time.Second)
	healed := time.Since(disarmed)
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos: %d acked inserts, serving_state=%s, scrub=%+v", len(acked), st.ServingState, st.Scrub)
	t.Logf("chaos: last disarm -> /readyz healthy in %v", healed.Round(100*time.Microsecond))
	if st.ServingState != "healthy" {
		t.Fatalf("serving_state = %q after the storm, want healthy", st.ServingState)
	}
	if st.Scrub == nil || st.Scrub.Runs == 0 {
		t.Errorf("scrubber never completed a pass during the storm: %+v", st.Scrub)
	}

	// Post-storm burst on the healed daemon: mutations acknowledge at full
	// rate again, and every one of them must survive the final reopen too.
	for i := 0; i < 100; i++ {
		id := uint64(50_000 + i)
		v := gausstree.MustVector(id,
			[]float64{float64(i) * 5, 5000},
			[]float64{0.2, 0.2})
		n, err := cl.Insert(context.Background(), []gausstree.Vector{v})
		if err != nil || n != 1 {
			t.Fatalf("post-storm insert %d = (%d, %v), want (1, nil)", id, n, err)
		}
		acked[id] = true
	}

	// Shut down and reopen cold: invariant 2, acknowledged ⊆ recovered.
	hs.Close()
	cl.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown after the storm: %v", err)
	}
	re, err := gausstree.Open(path)
	if err != nil {
		t.Fatalf("cold reopen after the storm: %v", err)
	}
	defer re.Close()
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("invariants after the storm: %v", err)
	}
	ids := dumpIDs(t, re)
	for i := 0; i < seeded; i++ {
		if !ids[uint64(i+1)] {
			t.Errorf("seeded id %d lost", i+1)
		}
	}
	lost := 0
	for id := range acked {
		if !ids[id] {
			lost++
			if lost <= 10 {
				t.Errorf("acknowledged insert %d missing after recovery", id)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged inserts lost", lost, len(acked))
	}

	// Invariant 4: the supervisor, scrubber and every swapped index wound
	// down without leaking goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+2 || time.Now().After(deadline) {
			if n > goroutinesBefore+2 {
				t.Fatalf("goroutine leak after the chaos run: %d before, %d after", goroutinesBefore, n)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}
