// Package obs is the observability kernel of the Gauss-tree service:
// dependency-free Prometheus-style metrics and lightweight per-query
// tracing, shared by every layer from the pagefile to gaussd.
//
// # Metrics
//
// A Registry holds metric families rendered in the Prometheus text
// exposition format (version 0.0.4). The hot-path instrument types —
// Counter, Gauge, Histogram — are pure atomics: incrementing one is a
// single atomic add (a short CAS loop for float accumulation), acquires no
// lock, and is safe to call from any goroutine, including while pagefile
// shard locks are held (TestHotPathTakesNoLock enforces this).
// Registration and rendering do lock (Registry.mu) and belong on startup
// and scrape paths only.
//
// CounterFunc and GaugeFunc register callback-backed series: the callback
// runs at scrape time, so exporting an existing atomic counter (pagefile
// I/O, WAL stats, epochs) costs the hot path nothing at all.
//
// # Tracing
//
// A Trace accumulates spans — named phases with wall time and page /
// node / scored-vector deltas — for one query. Traces are pooled and every
// method is safe on a nil receiver, so the unsampled path neither
// allocates nor branches beyond a nil check. See trace.go.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing uint64 metric. Inc and Add are
// single atomic operations; the zero value is ready to use but a Counter
// only appears in /metrics once registered through a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. Values are stored as
// raw IEEE-754 bits in a uint64 so reads and writes are atomic and
// race-free without a lock.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observe performs one
// atomic add per bucket hit plus an atomic count and a CAS-accumulated
// float sum — no locks, so a scrape racing observations sees each atomic
// individually consistent (the exposition may be a few observations ahead
// in one bucket relative to _count, exactly like the reference Prometheus
// client).
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets are the default latency buckets in seconds, spanning 100µs to
// 10s — wide enough for an in-memory point query and a cold sharded scan.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// series is one labeled instance inside a family: exactly one of the value
// fields is set.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups the series of one metric name with its HELP/TYPE metadata.
type family struct {
	name, help, kind string
	buckets          []float64 // histograms only
	series           []*series
	byKey            map[string]*series
}

// Registry is a set of metric families. Registration methods are
// idempotent — registering the same name and label set twice returns the
// original instrument — and panic on misuse (type or bucket mismatch,
// invalid names), which is a programmer error caught at startup.
// WritePrometheus renders the whole registry; it and the registration
// methods serialize on an internal mutex, the instruments themselves never
// lock.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	byNam map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNam: map[string]*family{}}
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, "counter", nil, nil, labels)
	return s.c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, "gauge", nil, nil, labels)
	return s.g
}

// Histogram registers (or returns the existing) histogram series with the
// given upper bucket bounds (strictly ascending; +Inf is implicit). A nil
// buckets slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	s := r.register(name, help, "histogram", buckets, nil, labels)
	return s.h
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time. fn must be safe for concurrent use and monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "counter", nil, fn, labels)
}

// GaugeFunc registers a gauge series whose value is read from fn at scrape
// time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", nil, fn, labels)
}

func (r *Registry) register(name, help, kind string, buckets []float64, fn func() float64, labels []Label) *series {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l.Name) || l.Name == "le" {
			panic("obs: invalid label name " + strconv.Quote(l.Name) + " on metric " + name)
		}
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic("obs: histogram buckets for " + name + " must be strictly ascending")
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byNam[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, byKey: map[string]*series{}}
		r.fams = append(r.fams, f)
		r.byNam[name] = f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " re-registered as " + kind + ", was " + f.kind)
	}
	// All series of one histogram family share one bucket layout, or their
	// le bounds would disagree within the family.
	if kind == "histogram" && !slices.Equal(f.buckets, buckets) {
		panic("obs: histogram " + name + " re-registered with different buckets")
	}
	key := labelKey(labels)
	if s := f.byKey[key]; s != nil {
		if (s.fn == nil) != (fn == nil) {
			panic("obs: metric " + name + key + " re-registered with a different collector kind")
		}
		return s
	}
	s := &series{labels: labels, fn: fn}
	if fn == nil {
		switch kind {
		case "counter":
			s.c = new(Counter)
		case "gauge":
			s.g = new(Gauge)
		case "histogram":
			s.h = &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
		}
	}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format, families in registration order, series in
// registration order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot the family list AND each family's series slice under the
	// mutex: register() appends to f.series while holding r.mu, so reading
	// it unlocked would race with a registration happening mid-scrape (a
	// torn slice header could pair the new length with the old array). The
	// series themselves are atomics and safe to read concurrently.
	r.mu.Lock()
	type famView struct {
		f      *family // name/help/kind are immutable after creation
		series []*series
	}
	fams := make([]famView, len(r.fams))
	for i, f := range r.fams {
		fams[i] = famView{f: f, series: append([]*series(nil), f.series...)}
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, fv := range fams {
		f := fv.f
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind)
		b.WriteByte('\n')
		for _, s := range fv.series {
			writeSeries(&b, f, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.fn != nil:
		writeSample(b, f.name, "", s.labels, nil, s.fn())
	case s.c != nil:
		writeSample(b, f.name, "", s.labels, nil, float64(s.c.Value()))
	case s.g != nil:
		writeSample(b, f.name, "", s.labels, nil, s.g.Value())
	case s.h != nil:
		var cum uint64
		for i, bound := range s.h.bounds {
			cum += s.h.counts[i].Load()
			le := Label{Name: "le", Value: formatFloat(bound)}
			writeSample(b, f.name, "_bucket", s.labels, &le, float64(cum))
		}
		cum += s.h.counts[len(s.h.bounds)].Load()
		le := Label{Name: "le", Value: "+Inf"}
		writeSample(b, f.name, "_bucket", s.labels, &le, float64(cum))
		writeSample(b, f.name, "_sum", s.labels, nil, s.h.Sum())
		writeSample(b, f.name, "_count", s.labels, nil, float64(s.h.Count()))
	}
}

func writeSample(b *strings.Builder, name, suffix string, labels []Label, extra *Label, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 || extra != nil {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, l)
		}
		if extra != nil {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, *extra)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func writeLabel(b *strings.Builder, l Label) {
	b.WriteString(l.Name)
	b.WriteString(`="`)
	b.WriteString(escapeLabel(l.Value))
	b.WriteByte('"')
}

// Handler returns an http.Handler serving the registry in the text
// exposition format, for mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The connection is gone; nothing useful to do.
			return
		}
	})
}

// labelKey is the registration identity of a label set: order-insensitive,
// so Counter(n, h, L("a","1"), L("b","2")) and the reverse are the same
// series.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		fmt.Fprintf(&b, "%s=%q;", l.Name, l.Value)
	}
	return b.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
