package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/client"
	"github.com/gauss-tree/gausstree/internal/server"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// makeVectors builds a clustered synthetic database.
func makeVectors(n, dim int, seed int64) []gausstree.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]gausstree.Vector, n)
	for i := range out {
		mean := make([]float64, dim)
		sigma := make([]float64, dim)
		for d := range mean {
			mean[d] = 10 * rng.Float64()
			sigma[d] = 0.05 + 0.1*rng.Float64()
		}
		out[i] = gausstree.MustVector(uint64(i+1), mean, sigma)
	}
	return out
}

// reobserve perturbs a stored vector into a query for it.
func reobserve(rng *rand.Rand, v gausstree.Vector) gausstree.Vector {
	mean := make([]float64, len(v.Mean))
	for d := range mean {
		mean[d] = v.Mean[d] + rng.NormFloat64()*v.Sigma[d]
	}
	return gausstree.MustVector(0, mean, append([]float64(nil), v.Sigma...))
}

// newShardedIndex builds an in-memory 3-shard index over n vectors.
func newShardedIndex(t *testing.T, n, dim int) (*gausstree.Sharded, []gausstree.Vector) {
	t.Helper()
	vs := makeVectors(n, dim, 42)
	s, err := gausstree.NewSharded(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	return s, vs
}

// startServer serves idx on an httptest server and returns a client for it.
// The server owns idx: cleanup shuts it down, which closes the index.
func startServer(t *testing.T, idx server.Index, cfg server.Config, copts ...client.Options) *client.Client {
	t.Helper()
	srv := server.New(idx, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	cl, err := client.New(hs.URL, copts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestLoopbackConformance is the acceptance bar for the wire format: for
// identical queries, results through client → server → Sharded must be
// identical to direct in-process calls — ids and log densities bitwise
// (encoding/json round-trips float64 exactly), probabilities within the
// certified interval width — for k-MLIQ, ranked k-MLIQ and TIQ.
func TestLoopbackConformance(t *testing.T) {
	s, vs := newShardedIndex(t, 1500, 3)
	cl := startServer(t, server.ShardedIndex(s), server.Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))

	assertSame := func(t *testing.T, remote, direct []gausstree.Match) {
		t.Helper()
		if remote == nil {
			t.Fatalf("remote matches are nil (JSON null): want [] semantics")
		}
		if len(remote) != len(direct) {
			t.Fatalf("remote %d matches, direct %d", len(remote), len(direct))
		}
		for i := range direct {
			r, d := remote[i], direct[i]
			if r.Vector.ID != d.Vector.ID {
				t.Fatalf("rank %d: remote id %d, direct id %d", i, r.Vector.ID, d.Vector.ID)
			}
			if r.LogDensity != d.LogDensity {
				t.Errorf("rank %d: remote log density %v, direct %v", i, r.LogDensity, d.LogDensity)
			}
			switch {
			case math.IsNaN(d.Probability):
				if !math.IsNaN(r.Probability) || !math.IsNaN(r.ProbLow) || !math.IsNaN(r.ProbHigh) {
					t.Errorf("rank %d: ranked NaN probabilities did not survive the wire: %+v", i, r)
				}
			default:
				if r.ProbLow != d.ProbLow || r.ProbHigh != d.ProbHigh {
					t.Errorf("rank %d: remote interval [%v,%v], direct [%v,%v]",
						i, r.ProbLow, r.ProbHigh, d.ProbLow, d.ProbHigh)
				}
				width := d.ProbHigh - d.ProbLow
				if math.Abs(r.Probability-d.Probability) > width+1e-15 {
					t.Errorf("rank %d: remote probability %v, direct %v (certified width %v)",
						i, r.Probability, d.Probability, width)
				}
			}
		}
	}

	for trial := 0; trial < 10; trial++ {
		q := reobserve(rng, vs[(37*trial)%len(vs)])

		remote, rst, err := cl.KMLIQ(ctx, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		direct, dst, err := s.KMLIQContext(ctx, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, remote, direct)
		if rst.PageAccesses == 0 || dst.PageAccesses == 0 {
			t.Errorf("trial %d: zero page accesses (remote %d, direct %d)", trial, rst.PageAccesses, dst.PageAccesses)
		}

		remote, _, err = cl.KMLIQRanked(ctx, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		direct, _, err = s.KMLIQRankedContext(ctx, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, remote, direct)

		remote, _, err = cl.TIQ(ctx, q, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		direct, _, err = s.TIQContext(ctx, q, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, remote, direct)
	}
}

// TestBatchConformance proves the batch endpoint returns exactly what the
// single-query endpoints return, in request order, and reports per-item
// errors without failing the batch.
func TestBatchConformance(t *testing.T) {
	s, vs := newShardedIndex(t, 800, 3)
	cl := startServer(t, server.ShardedIndex(s), server.Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))

	q1, q2, q3 := reobserve(rng, vs[10]), reobserve(rng, vs[20]), reobserve(rng, vs[30])
	batch := []client.Query{
		{Kind: client.KindKMLIQ, Query: q1, K: 3},
		{Kind: client.KindKMLIQRanked, Query: q2, K: 2},
		{Kind: client.KindTIQ, Query: q3, PTheta: 0.1},
		{Kind: client.KindKMLIQ, Query: q1, K: 0}, // invalid: per-item error
	}
	results, err := cl.Batch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batch) {
		t.Fatalf("%d results for %d queries", len(results), len(batch))
	}

	single, _, err := cl.KMLIQ(ctx, q1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Matches) != len(single) {
		t.Fatalf("batch kmliq %d matches, single %d", len(results[0].Matches), len(single))
	}
	for i := range single {
		if results[0].Matches[i].Vector.ID != single[i].Vector.ID {
			t.Errorf("rank %d: batch id %d, single id %d", i, results[0].Matches[i].Vector.ID, single[i].Vector.ID)
		}
	}
	if len(results[1].Matches) != 2 || !math.IsNaN(results[1].Matches[0].Probability) {
		t.Errorf("ranked batch item: %+v", results[1].Matches)
	}
	if results[2].Err != nil {
		t.Errorf("tiq batch item failed: %v", results[2].Err)
	}
	if results[3].Err == nil || !errors.Is(results[3].Err, gausstree.ErrInvalidQuery) {
		t.Errorf("invalid batch item: err = %v, want ErrInvalidQuery", results[3].Err)
	}
	if results[3].Matches == nil {
		t.Errorf("failed batch item has nil matches: want []")
	}
}

// TestRemoteValidationErrors proves the typed ErrInvalidQuery survives the
// wire: the daemon maps it to 400/invalid_query and the client maps it back,
// so errors.Is behaves identically for local and remote indexes.
func TestRemoteValidationErrors(t *testing.T) {
	s, vs := newShardedIndex(t, 200, 3)
	cl := startServer(t, server.ShardedIndex(s), server.Config{})
	ctx := context.Background()
	q := vs[0].Clone()
	q.ID = 0

	cases := []struct {
		name string
		run  func() error
	}{
		{"kmliq k=0", func() error { _, _, err := cl.KMLIQ(ctx, q, 0); return err }},
		{"ranked k=-3", func() error { _, _, err := cl.KMLIQRanked(ctx, q, -3); return err }},
		{"tiq pTheta=0", func() error { _, _, err := cl.TIQ(ctx, q, 0); return err }},
		{"tiq pTheta=1.5", func() error { _, _, err := cl.TIQ(ctx, q, 1.5); return err }},
		{"wrong dimension", func() error {
			bad := gausstree.MustVector(0, []float64{1}, []float64{0.1})
			_, _, err := cl.KMLIQ(ctx, bad, 1)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.run()
		if !errors.Is(err, gausstree.ErrInvalidQuery) {
			t.Errorf("%s: err = %v, want ErrInvalidQuery", tc.name, err)
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want APIError with status 400", tc.name, err)
		}
	}
}

// gatedIndex wraps an Index so tests control when queries finish: each KMLIQ
// signals started and then blocks until released (or its deadline fires).
type gatedIndex struct {
	server.Index
	started chan struct{}
	release chan struct{}
}

func (g *gatedIndex) KMLIQ(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error) {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, gausstree.QueryStats{}, ctx.Err()
	}
	return g.Index.KMLIQ(ctx, q, k)
}

// TestAdmissionControl verifies the bounded in-flight + bounded queue
// semantics under a burst of slow queries: with MaxInflight=2 and MaxQueue=2
// exactly the requests beyond capacity are rejected with 429 + Retry-After,
// the admitted ones all complete once unblocked, and no goroutines leak.
func TestAdmissionControl(t *testing.T) {
	before := runtime.NumGoroutine()

	s, vs := newShardedIndex(t, 300, 3)
	gated := &gatedIndex{
		Index:   server.ShardedIndex(s),
		started: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	// MaxRetries: -1 disables client-side 429 retries so rejections are
	// observable instead of being absorbed by backoff.
	cl := startServer(t, gated,
		server.Config{MaxInflight: 2, MaxQueue: 2, Timeout: 30 * time.Second},
		client.Options{MaxRetries: -1})
	ctx := context.Background()
	q := vs[0].Clone()
	q.ID = 0

	// Fill both execution slots...
	type outcome struct {
		matches []gausstree.Match
		err     error
	}
	results := make(chan outcome, 4)
	issue := func() {
		ms, _, err := cl.KMLIQ(ctx, q, 2)
		results <- outcome{ms, err}
	}
	go issue()
	go issue()
	for i := 0; i < 2; i++ {
		select {
		case <-gated.started:
		case <-time.After(5 * time.Second):
			t.Fatal("executing queries did not start")
		}
	}
	// ...then both queue positions (these wait inside the limiter, before
	// the handler runs, so they never signal started)...
	go issue()
	go issue()
	waitQueued(t, cl, 2)

	// ...so every further request must be rejected immediately with 429.
	for i := 0; i < 5; i++ {
		_, _, err := cl.KMLIQ(ctx, q, 2)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("burst request %d: err = %v, want 429", i, err)
		}
		if !errors.Is(err, client.ErrSaturated) {
			t.Errorf("burst request %d: err = %v, want ErrSaturated", i, err)
		}
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Rejected != 5 {
		t.Errorf("rejected counter = %d, want 5", st.Server.Rejected)
	}
	if st.Server.InFlight != 2 || st.Server.Queued != 2 {
		t.Errorf("gauges: in_flight=%d queued=%d, want 2/2", st.Server.InFlight, st.Server.Queued)
	}

	// Unblock: all four admitted queries (2 executing + 2 queued) complete
	// with real answers.
	close(gated.release)
	for i := 0; i < 4; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Errorf("admitted query failed: %v", r.err)
			} else if len(r.matches) == 0 {
				t.Errorf("admitted query returned no matches")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted query did not complete after release")
		}
	}

	// The two queued requests signal started when they get their slots;
	// drain those tokens, then check for goroutine leaks. Idle pooled HTTP
	// connections are dropped first — their read loops are reusable
	// infrastructure, not leaks; what must not remain is anything spawned
	// per rejected or drained request.
	for len(gated.started) > 0 {
		<-gated.started
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.Close()
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 || time.Now().After(deadline) {
			if n > before+3 {
				t.Errorf("goroutine leak: %d before burst, %d after", before, n)
			}
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func waitQueued(t *testing.T, cl *client.Client, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Server.Queued >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", want, st.Server.Queued)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdownDrains proves Shutdown lets an in-flight query finish
// with a valid answer — the mid-query SIGTERM scenario — and only then
// closes the index.
func TestGracefulShutdownDrains(t *testing.T) {
	s, vs := newShardedIndex(t, 300, 3)
	gated := &gatedIndex{
		Index:   server.ShardedIndex(s),
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	srv := server.New(gated, server.Config{Timeout: 30 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	cl, err := client.New(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	q := vs[7].Clone()
	q.ID = 0
	type outcome struct {
		matches []gausstree.Match
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		ms, _, err := cl.KMLIQ(context.Background(), q, 3)
		done <- outcome{ms, err}
	}()
	<-gated.started // the query is now mid-flight

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the in-flight query, not abort it.
	select {
	case r := <-done:
		t.Fatalf("in-flight query finished before release: %+v (shutdown aborted it?)", r)
	case <-time.After(200 * time.Millisecond):
	}
	close(gated.release)

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight query failed during shutdown: %v", r.err)
	}
	if len(r.matches) == 0 || r.matches[0].Vector.ID != vs[7].ID {
		t.Fatalf("in-flight query returned invalid answer during shutdown: %+v", r.matches)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}

	// The index is closed; new connections are refused.
	if err := cl.Health(context.Background()); err == nil {
		t.Error("health check succeeded after shutdown")
	}
}

// TestQueuedRequestHonorsDeadline proves a request waiting in the admission
// queue gives up when its deadline passes instead of waiting indefinitely:
// the deadline governs the whole request, queue time included.
func TestQueuedRequestHonorsDeadline(t *testing.T) {
	s, vs := newShardedIndex(t, 200, 3)
	gated := &gatedIndex{
		Index:   server.ShardedIndex(s),
		started: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	cl := startServer(t, gated,
		server.Config{MaxInflight: 1, MaxQueue: 4, Timeout: 30 * time.Second},
		client.Options{MaxRetries: -1})
	q := vs[0].Clone()
	q.ID = 0

	// Occupy the single execution slot...
	blocker := make(chan error, 1)
	go func() {
		_, _, err := cl.KMLIQ(context.Background(), q, 1)
		blocker <- err
	}()
	<-gated.started

	// ...then a short-deadline request must queue and fail within its
	// deadline, not wait the full 30s ceiling for the slot.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := cl.KMLIQ(ctx, q, 1)
	if err == nil {
		t.Fatal("queued request succeeded despite its deadline")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("queued request waited %v, deadline was 200ms", waited)
	}

	close(gated.release)
	if err := <-blocker; err != nil {
		t.Fatalf("slot-holding query failed: %v", err)
	}
}

// TestReadOnly proves mutations are refused with 403/read_only while queries
// keep working.
func TestReadOnly(t *testing.T) {
	s, vs := newShardedIndex(t, 200, 3)
	cl := startServer(t, server.ShardedIndex(s), server.Config{ReadOnly: true})
	ctx := context.Background()

	if _, err := cl.Insert(ctx, makeVectors(1, 3, 1)); err == nil {
		t.Fatal("insert succeeded on a read-only daemon")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
			t.Errorf("insert err = %v, want 403", err)
		}
	}
	if _, err := cl.Delete(ctx, vs[0]); err == nil {
		t.Fatal("delete succeeded on a read-only daemon")
	}
	q := vs[0].Clone()
	q.ID = 0
	if ms, _, err := cl.KMLIQ(ctx, q, 1); err != nil || len(ms) == 0 {
		t.Fatalf("query on read-only daemon: matches=%v err=%v", ms, err)
	}
}

// TestMutationsOverWire proves insert and delete round-trip: an inserted
// vector becomes findable, a deleted one stops being found.
func TestMutationsOverWire(t *testing.T) {
	s, _ := newShardedIndex(t, 200, 3)
	cl := startServer(t, server.ShardedIndex(s), server.Config{})
	ctx := context.Background()

	v := gausstree.MustVector(9999, []float64{42, 42, 42}, []float64{0.05, 0.05, 0.05})
	n, err := cl.Insert(ctx, []gausstree.Vector{v})
	if err != nil || n != 1 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	q := v.Clone()
	q.ID = 0
	ms, _, err := cl.KMLIQ(ctx, q, 1)
	if err != nil || len(ms) != 1 || ms[0].Vector.ID != 9999 {
		t.Fatalf("kmliq after insert: %v, %v", ms, err)
	}
	found, err := cl.Delete(ctx, v)
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	found, err = cl.Delete(ctx, v)
	if err != nil || found {
		t.Fatalf("second delete: found=%v err=%v", found, err)
	}
}

// TestDeadlinePropagation proves timeout_ms reaches the engine: a gated
// query with a short client deadline returns 504/deadline instead of
// hanging.
func TestDeadlinePropagation(t *testing.T) {
	s, vs := newShardedIndex(t, 200, 3)
	gated := &gatedIndex{
		Index:   server.ShardedIndex(s),
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	cl := startServer(t, gated, server.Config{Timeout: 30 * time.Second}, client.Options{MaxRetries: -1})

	q := vs[0].Clone()
	q.ID = 0
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, _, err := cl.KMLIQ(ctx, q, 1)
	if err == nil {
		t.Fatal("gated query succeeded despite deadline")
	}
	// Either the server reported 504 (its derived deadline fired) or the
	// client's own context expired — both prove the deadline was honored
	// promptly; the former proves it crossed the wire.
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		if apiErr.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("err = %v, want 504", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want errors.Is DeadlineExceeded", err)
		}
	} else if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
		t.Errorf("err = %v, want a deadline error", err)
	}
	close(gated.release)
}

// TestHugeTimeoutMSIsNoShorterThanTheCeiling: a timeout_ms too large for a
// time.Duration asks for more than the server's ceiling, so the ceiling
// bounds the query; it must not overflow into a deadline already past.
func TestHugeTimeoutMSIsNoShorterThanTheCeiling(t *testing.T) {
	s, vs := newShardedIndex(t, 200, 3)
	_, base := startServerMux(t, server.ShardedIndex(s), server.Config{})
	q := vs[0].Clone()
	q.ID = 0
	for _, ms := range []int64{5000, 1 << 62, math.MaxInt64} {
		body, err := json.Marshal(wire.QueryRequest{Query: q, K: 1, TimeoutMS: ms})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/kmliq", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("timeout_ms %d: got status %d, want 200", ms, resp.StatusCode)
		}
	}
}

// TestTrailingBodyBytesRefused: every POST endpoint serves its well-formed
// body and refuses the same body followed by a second JSON value or by junk,
// or with an unknown key inside its vector, with 400 invalid_query — like an
// unknown field, bytes the server would otherwise ignore are a format drift
// that must fail loudly.
func TestTrailingBodyBytesRefused(t *testing.T) {
	s, vs := newShardedIndex(t, 200, 3)
	srv := server.New(server.ShardedIndex(s), server.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	q := vs[0].Clone()
	q.ID = 0
	fresh := gausstree.MustVector(9999, []float64{42, 42, 42}, []float64{0.05, 0.05, 0.05})
	endpoints := []struct {
		path string
		body any
	}{
		{"/v1/kmliq", wire.QueryRequest{Query: q, K: 3}},
		{"/v1/kmliq-ranked", wire.QueryRequest{Query: q, K: 3}},
		{"/v1/tiq", wire.QueryRequest{Query: q, PTheta: 0.5}},
		{"/v1/batch", wire.BatchRequest{Queries: []wire.BatchItem{{Kind: "kmliq", Query: q, K: 1}}}},
		{"/v1/insert", wire.InsertRequest{Vectors: []gausstree.Vector{fresh}}},
		{"/v1/delete", wire.DeleteRequest{Vector: fresh}},
	}
	for _, ep := range endpoints {
		good, err := json.Marshal(ep.body)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name, body string
			status     int
		}{
			{"well-formed", string(good), http.StatusOK},
			{"trailing whitespace", string(good) + " \n", http.StatusOK},
			{"second value", string(good) + `{"k":9}`, http.StatusBadRequest},
			{"junk", string(good) + " junk", http.StatusBadRequest},
			{"unknown key inside a vector", strings.Replace(string(good), `"sigma":`, `"bogus":7,"sigma":`, 1), http.StatusBadRequest},
		} {
			resp, err := http.Post(hs.URL+ep.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s %s: %v", ep.path, tc.name, err)
			}
			var apiErr wire.Error
			if resp.StatusCode != http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
					t.Errorf("%s %s: undecodable error body: %v", ep.path, tc.name, err)
				}
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status || (tc.status != http.StatusOK && apiErr.Code != wire.ErrCodeInvalid) {
				t.Errorf("%s %s: status %d code %q, want %d", ep.path, tc.name, resp.StatusCode, apiErr.Code, tc.status)
			}
		}
	}
}

// TestServedInsertsShareGroupCommits drives what a daemon's write traffic
// looks like — many clients, one vector per /v1/insert — at a file-backed
// tree and requires the acknowledgements to have shared fsyncs: the served
// mutation path awaits the group commit after the index's writer lock is
// released, like every other. Held across the wait, the lock makes every
// insert a group of its own: 640 fsyncs for 640 inserts.
func TestServedInsertsShareGroupCommits(t *testing.T) {
	const writers, each = 32, 20
	path := filepath.Join(t.TempDir(), "served.gtree")
	// A window long enough for all 32 requests to reach the lock even under
	// the race detector.
	tree, err := gausstree.New(2, gausstree.Options{Path: path, PageSize: 1024, CommitLatency: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl := startServer(t, server.TreeIndex(tree), server.Config{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if n, err := cl.Insert(ctx, []gausstree.Vector{seqVector(w*each + i)}); n != 1 || err != nil {
					t.Errorf("writer %d: Insert = (%d, %v), want (1, nil)", w, n, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL == nil || st.WAL.Records != writers*each {
		t.Fatalf("stats report WAL %+v, want %d records", st.WAL, writers*each)
	}
	if st.WAL.MeanGroupSize < 4 || st.WAL.Fsyncs > writers*each/4 {
		t.Fatalf("%d fsyncs for %d served inserts (mean group size %.2f): /v1/insert does not share group commits",
			st.WAL.Fsyncs, st.WAL.Records, st.WAL.MeanGroupSize)
	}
	t.Logf("%d served inserts, %d fsyncs, mean group size %.1f", st.WAL.Records, st.WAL.Fsyncs, st.WAL.MeanGroupSize)

	// What a crash right now would leave: every acknowledged id.
	snap := filepath.Join(t.TempDir(), "snap.gtree")
	copyFile(t, path, snap)
	copyFile(t, path+".wal", snap+".wal")
	re, err := gausstree.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ids := dumpIDs(t, re)
	for id := uint64(1); id <= writers*each; id++ {
		if !ids[id] {
			t.Fatalf("acknowledged id %d is missing after a crash", id)
		}
	}
	if re.Len() != writers*each {
		t.Fatalf("a crash leaves %d vectors, %d were acknowledged once each", re.Len(), writers*each)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
