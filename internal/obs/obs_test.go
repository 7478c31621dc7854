package obs

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExpositionGolden locks the exact rendering of every metric kind so
// names, labels, bucket layout and float formatting cannot drift silently.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", L("endpoint", "kmliq"), L("outcome", "ok"))
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	g := r.Gauge("test_inflight", "In-flight requests.")
	g.Set(2.5)
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)
	r.GaugeFunc("test_epoch", "Snapshot epoch.", func() float64 { return 42 })
	r.Counter("test_escapes_total", "esc\\aped\nhelp", L("path", "a\"b\\c\nd"))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{endpoint="kmliq",outcome="ok"} 3
# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 2.5
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 2
test_latency_seconds_bucket{le="0.1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 7.06
test_latency_seconds_count 4
# HELP test_epoch Snapshot epoch.
# TYPE test_epoch gauge
test_epoch 42
# HELP test_escapes_total esc\\aped\nhelp
# TYPE test_escapes_total counter
test_escapes_total{path="a\"b\\c\nd"} 0
`
	if got := b.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "dup", L("x", "1"))
	b := r.Counter("dup_total", "dup", L("x", "1"))
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	other := r.Counter("dup_total", "dup", L("x", "2"))
	if other == a {
		t.Error("distinct label values shared a counter")
	}
	// Label order must not matter.
	h1 := r.Histogram("dup_hist", "h", nil, L("a", "1"), L("b", "2"))
	h2 := r.Histogram("dup_hist", "h", nil, L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Error("label order changed series identity")
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("kind_total", "k")
	r.Histogram("hb_seconds", "k", []float64{1, 2})
	for name, fn := range map[string]func(){
		"kind mismatch":     func() { r.Gauge("kind_total", "k") },
		"invalid name":      func() { r.Counter("bad-name", "k") },
		"reserved le label": func() { r.Counter("ok_total", "k", L("le", "1")) },
		"unsorted buckets":  func() { r.Histogram("h_total", "k", []float64{2, 1}) },
		"bucket mismatch":   func() { r.Histogram("hb_seconds", "k", []float64{1, 3}, L("x", "1")) },
		"collector clash":   func() { r.CounterFunc("kind_total", "k", func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestConcurrentScrape races increments against renders; under -race this
// proves the hot-path instruments are lock-free and tear-free, and it
// checks counters only ever move forward between scrapes.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "r")
	g := r.Gauge("race_gauge", "r")
	h := r.Histogram("race_seconds", "r", nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					g.Set(1)
					h.Observe(0.001)
				}
			}
		}()
	}
	var last uint64
	for i := 0; i < 200; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if now := c.Value(); now < last {
			t.Fatalf("counter went backwards: %d -> %d", last, now)
		} else {
			last = now
		}
		if h.Count() > c.Value()+uint64(4) && c.Value() > 0 {
			// Same increment cadence: the two can differ only by in-flight
			// goroutines.
			t.Fatalf("histogram count %d ran far ahead of counter %d", h.Count(), c.Value())
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentRegisterScrape races registrations against renders; under
// -race this proves WritePrometheus snapshots every family's series list
// under the registry mutex instead of iterating it while register() appends
// (a scrape concurrent with a new label pair must never see a torn slice).
// The registrar adds a fixed number of series and lets one scrape complete
// per chunk, so the two sides interleave under any scheduler and the work is
// bounded: an unpaced registrar either never ran before the scrapes were over
// or outgrew them without end.
func TestConcurrentRegisterScrape(t *testing.T) {
	const series, chunk = 2000, 100
	r := NewRegistry()
	var scrapes atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < series; i++ {
			r.Counter("reg_race_total", "r", L("i", strconv.Itoa(i))).Inc()
			if (i+1)%chunk == 0 {
				for seen := scrapes.Load(); scrapes.Load() == seen; {
					runtime.Gosched()
				}
			}
		}
	}()
	partial := 0
	for registering := true; registering; {
		select {
		case <-done:
			registering = false
		default:
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		scrapes.Add(1)
		n := strings.Count(b.String(), "reg_race_total{")
		if 0 < n && n < series {
			partial++
		}
		if !registering && n != series {
			t.Errorf("final scrape holds %d of %d series", n, series)
		}
		runtime.Gosched()
	}
	if partial == 0 {
		t.Errorf("no scrape out of %d ran while the series were being registered", scrapes.Load())
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "b", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// Cumulative: le=1 -> 2 (0.5, 1), le=2 -> 4 (+1.5, 2), le=4 -> 6 (+3,
	// 4), +Inf -> 7.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`b_seconds_bucket{le="1"} 2`,
		`b_seconds_bucket{le="2"} 4`,
		`b_seconds_bucket{le="4"} 6`,
		`b_seconds_bucket{le="+Inf"} 7`,
		`b_seconds_count 7`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}
