package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/client"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/server"
)

// syncBuffer is a concurrency-safe trace-log sink for tests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServerMux is startServer but also exposes the raw handler URL so
// tests can issue requests the client package has no verb for.
func startServerMux(t *testing.T, idx server.Index, cfg server.Config) (*client.Client, string) {
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
	cl, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, hs.URL
}

// TestMetricNamesExposed locks the metric vocabulary: a file-backed tree
// served with metrics on must expose every family the observability layer
// promises, so names cannot drift silently.
func TestMetricNamesExposed(t *testing.T) {
	tree, err := gausstree.New(3, gausstree.Options{Path: filepath.Join(t.TempDir(), "idx.gt")})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cl, _ := startServerMux(t, server.TreeIndex(tree), server.Config{Metrics: reg})

	ctx := context.Background()
	vs := makeVectors(60, 3, 5)
	if _, err := cl.Insert(ctx, vs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, _, err := cl.KMLIQ(ctx, reobserve(rng, vs[0]), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, name := range []string{
		"gaussd_build_info",
		"gaussd_http_requests_total",
		"gaussd_request_seconds_bucket",
		"gaussd_inflight_requests",
		"gaussd_queued_requests",
		"gaussd_rejected_total",
		"gausstree_pagefile_logical_reads_total",
		"gausstree_pagefile_cache_hits_total",
		"gausstree_pagefile_physical_reads_total",
		"gausstree_pagefile_writes_total",
		"gausstree_pagefile_seeks_total",
		"gausstree_vectors",
		`gausstree_shard_vectors{shard="0"}`,
		"gausstree_snapshot_epoch",
		"gausstree_oldest_pinned_epoch",
		"gausstree_pinned_readers",
		"gausstree_limbo_pages",
		"gausstree_wal_fsyncs_total",
		"gausstree_wal_records_total",
		"gausstree_wal_group_size_mean",
		"gausstree_wal_durable_lsn",
		"gausstree_wal_durable_lag",
	} {
		if !strings.Contains(text, "\n"+name) && !strings.HasPrefix(text, name) {
			t.Errorf("exposition is missing %s", name)
		}
	}
	if !strings.Contains(text, `gaussd_http_requests_total{endpoint="kmliq",outcome="ok"}`) {
		t.Error("per-endpoint request counter with outcome label missing")
	}
}

// TestConcurrentScrapes races /metrics renders and /v1/stats fetches
// against queries and mutations; under -race this proves the scrape path
// takes no torn reads, and the request counter must be monotonic across
// scrapes.
func TestConcurrentScrapes(t *testing.T) {
	s, vs := newShardedIndex(t, 800, 3)
	reg := obs.NewRegistry()
	cl, _ := startServerMux(t, server.ShardedIndex(s), server.Config{Metrics: reg})
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				if _, _, err := cl.KMLIQ(ctx, reobserve(rng, vs[rng.Intn(len(vs))]), 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.Insert(ctx, makeVectors(1, 3, int64(1000+i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var lastTotal float64
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		total := sumSeries(t, buf.String(), "gaussd_http_requests_total{")
		if total < lastTotal {
			t.Fatalf("request counter went backwards: %v after %v", total, lastTotal)
		}
		lastTotal = total
		if _, err := cl.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// sumSeries adds the values of every sample line starting with prefix.
func sumSeries(t *testing.T, text, prefix string) float64 {
	t.Helper()
	var total float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var v float64
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if err := json.Unmarshal([]byte(line[i+1:]), &v); err != nil {
			t.Fatalf("parsing sample line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestTraceIDFlow covers the correlation contract: a client-chosen id is
// adopted and echoed, and an always-sampled request without one gets a
// server-assigned id.
func TestTraceIDFlow(t *testing.T) {
	s, vs := newShardedIndex(t, 400, 3)
	var log syncBuffer
	cl, _ := startServerMux(t, server.ShardedIndex(s), server.Config{
		TraceSample: 1,
		TraceLog:    &log,
	})
	rng := rand.New(rand.NewSource(2))

	var echoed string
	ctx := client.WithTraceIDCapture(client.WithTraceID(context.Background(), "corr-17"), &echoed)
	if _, _, err := cl.KMLIQ(ctx, reobserve(rng, vs[0]), 3); err != nil {
		t.Fatal(err)
	}
	if echoed != "corr-17" {
		t.Errorf("client-chosen trace id not echoed: got %q", echoed)
	}

	echoed = ""
	ctx = client.WithTraceIDCapture(context.Background(), &echoed)
	if _, _, err := cl.KMLIQ(ctx, reobserve(rng, vs[1]), 3); err != nil {
		t.Fatal(err)
	}
	if len(echoed) != 16 {
		t.Errorf("server-assigned trace id should be 16 hex chars, got %q", echoed)
	}

	// Both sampled traces must be in the log, correlated by id, carrying
	// spans that attribute work to the sharded query.
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	found := false
	for _, line := range lines {
		var rec struct {
			TraceID  string `json:"trace_id"`
			Endpoint string `json:"endpoint"`
			Status   int    `json:"status"`
			Spans    []struct {
				Name  string `json:"name"`
				Pages int64  `json:"pages"`
			} `json:"spans"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace log line is not valid JSON: %q: %v", line, err)
		}
		if rec.TraceID != "corr-17" {
			continue
		}
		found = true
		if rec.Endpoint != "kmliq" || rec.Status != http.StatusOK {
			t.Errorf("unexpected trace record: %+v", rec)
		}
		if len(rec.Spans) == 0 {
			t.Error("sampled sharded query recorded no spans")
		}
	}
	if !found {
		t.Errorf("trace corr-17 not in log: %q", log.String())
	}
}

// TestSkippedShardShowsInTraceAndSkewInStats: a sharded index is cut by
// parameter space, so a query deep inside one region leaves other shards
// unread — and the trace shows which: every kmliq_refine span carries its
// shard and the pages it read, and a skipped shard is the one without a
// span. The other side of such a partition, that it can pile vectors onto one
// shard, shows in /v1/stats and as gausstree_shard_vectors{shard}.
func TestSkippedShardShowsInTraceAndSkewInStats(t *testing.T) {
	const shards = 4
	rng := rand.New(rand.NewSource(6))
	var vs []gausstree.Vector
	for c := 0; c < shards; c++ { // four clusters at the corners of a square
		for i := 0; i < 150; i++ {
			mean := []float64{float64(40*(c%2)) + rng.NormFloat64(), float64(40*(c/2)) + rng.NormFloat64()}
			vs = append(vs, gausstree.MustVector(uint64(len(vs)+1), mean, []float64{0.3, 0.3}))
		}
	}
	s, err := gausstree.NewSharded(2, shards, gausstree.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	var log syncBuffer
	reg := obs.NewRegistry()
	cl, _ := startServerMux(t, server.ShardedIndex(s), server.Config{TraceSample: 1, TraceLog: &log, Metrics: reg})
	ctx := context.Background()
	if _, _, err := cl.KMLIQ(ctx, gausstree.MustVector(0, []float64{0, 0}, []float64{0.3, 0.3}), 3); err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(log.String(), "\n")
	var rec struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("trace log line is not valid JSON: %q: %v", line, err)
	}
	read := map[int]int64{} // shard -> pages over its refine spans
	rounds := 0
	for _, sp := range rec.Spans {
		switch sp.Name {
		case "kmliq_refine":
			if sp.Shard < 0 || sp.Shard >= shards {
				t.Errorf("refine span of shard %d", sp.Shard)
			}
			read[sp.Shard] += sp.Pages
		case "merge_round":
			rounds++
		}
	}
	if rounds == 0 || len(read) == 0 || len(read) > shards-2 {
		t.Errorf("a query deep inside one of %d separated clusters: %d merge rounds, refine spans for shards %v; want at least two shards without a span", shards, rounds, read)
	}

	if _, err := cl.Insert(ctx, []gausstree.Vector{gausstree.MustVector(9001, []float64{41, 41}, []float64{0.3, 0.3})}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sum, most := 0, 0
	for _, n := range st.ShardVectors {
		sum, most = sum+n, max(most, n)
	}
	if len(st.ShardVectors) != shards || sum != st.Len || most != 151 {
		t.Errorf("shard_vectors %v of len %d: want %d shards of 150 and the insert's region at 151", st.ShardVectors, st.Len, shards)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for i, n := range st.ShardVectors {
		if want := fmt.Sprintf("gausstree_shard_vectors{shard=\"%d\"} %d\n", i, n); !strings.Contains(buf.String(), want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestSlowQueryLog proves the threshold path is independent of sampling:
// with sampling off and a 0ns-effective threshold, every query lands in
// the log marked slow.
func TestSlowQueryLog(t *testing.T) {
	s, vs := newShardedIndex(t, 400, 3)
	var log syncBuffer
	cl, _ := startServerMux(t, server.ShardedIndex(s), server.Config{
		SlowQueryThreshold: time.Nanosecond,
		TraceLog:           &log,
	})
	rng := rand.New(rand.NewSource(3))
	if _, _, err := cl.KMLIQ(context.Background(), reobserve(rng, vs[2]), 3); err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(log.String(), "\n")
	var rec struct {
		Slow      bool    `json:"slow"`
		Endpoint  string  `json:"endpoint"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-query log line is not valid JSON: %q: %v", line, err)
	}
	if !rec.Slow || rec.Endpoint != "kmliq" || rec.ElapsedMS <= 0 {
		t.Errorf("unexpected slow-query record: %+v", rec)
	}
}

// TestEndpointBreakdown checks the per-endpoint served counters in
// /v1/stats, and that the response carries build identity.
func TestEndpointBreakdown(t *testing.T) {
	s, vs := newShardedIndex(t, 400, 3)
	cl, _ := startServerMux(t, server.ShardedIndex(s), server.Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3; i++ {
		if _, _, err := cl.KMLIQ(ctx, reobserve(rng, vs[i]), 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.TIQ(ctx, reobserve(rng, vs[5]), 0.05); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Insert(ctx, makeVectors(2, 3, 99)); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"kmliq": 3, "tiq": 1, "insert": 1, "kmliq_ranked": 0, "batch": 0, "delete": 0}
	for ep, served := range want {
		got, ok := st.Server.Endpoints[ep]
		if !ok {
			t.Errorf("endpoint %s missing from breakdown", ep)
			continue
		}
		if got.Served != served || got.Rejected != 0 {
			t.Errorf("endpoint %s: got %+v, want served=%d rejected=0", ep, got, served)
		}
	}
	if st.Server.Served != 5 {
		t.Errorf("total served = %d, want 5", st.Server.Served)
	}
	if st.Build.Revision == "" || st.Build.Version == "" {
		t.Errorf("stats response carries no build identity: %+v", st.Build)
	}
}

// slowStatsIndex delays IOStats to simulate stats collection stuck behind
// an index-internal lock.
type slowStatsIndex struct {
	server.Index
	delay time.Duration
}

func (i slowStatsIndex) IOStats() (pagefile.Stats, error) {
	time.Sleep(i.delay)
	return i.Index.IOStats()
}

// TestStatsDeadlineBounds proves timeout_ms actually bounds /v1/stats: a
// collection stuck inside the index yields a 504 when the deadline fires
// rather than holding the response until collection returns.
func TestStatsDeadlineBounds(t *testing.T) {
	s, _ := newShardedIndex(t, 100, 3)
	_, base := startServerMux(t, slowStatsIndex{server.ShardedIndex(s), 2 * time.Second}, server.Config{})
	start := time.Now()
	resp, err := http.Get(base + "/v1/stats?timeout_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("stuck stats collection: got status %d, want 504", resp.StatusCode)
	}
	if waited := time.Since(start); waited >= 2*time.Second {
		t.Errorf("handler waited %v for collection instead of honoring the 50ms deadline", waited)
	}
}

// TestStatsTimeoutParam checks /v1/stats now takes a deadline like every
// other handler: a malformed timeout_ms is a 400, a generous one succeeds —
// also one too large for a time.Duration, which the server's ceiling bounds.
func TestStatsTimeoutParam(t *testing.T) {
	s, _ := newShardedIndex(t, 100, 3)
	_, base := startServerMux(t, server.ShardedIndex(s), server.Config{})

	resp, err := http.Get(base + "/v1/stats?timeout_ms=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed timeout_ms: got status %d, want 400", resp.StatusCode)
	}

	for _, ms := range []string{"5000", "4611686018427387904", "9223372036854775807"} {
		resp, err := http.Get(base + "/v1/stats?timeout_ms=" + ms)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Backend string `json:"backend"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("timeout_ms=%s: got status %d, want 200", ms, resp.StatusCode)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.Backend != "sharded" {
			t.Errorf("backend = %q, want sharded", st.Backend)
		}
	}
}
