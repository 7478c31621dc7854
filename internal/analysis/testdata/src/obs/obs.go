// Fixture for the obsregister analyzer: a mirror of the internal/obs
// instrumentation kernel. Gauge.Set, Sampler.Sample and Trace.Begin are the
// documented pure-atomic shapes; Counter.Inc locks directly and
// Histogram.Observe locks through a helper (both flagged);
// Trace.End takes only the trace-local Trace.mu, which the allowance table
// permits. WithTrace is deliberately missing so the stale-table report is
// exercised at the package clause.
package obs // want "hot-path table lists WithTrace"

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Counter mirrors the atomic counter, plus a mutex it must not use on the
// hot path.
type Counter struct {
	v  atomic.Uint64
	mu sync.Mutex
}

// bad: serializes every instrumented caller on c.mu.
func (c *Counter) Inc() { // want "obs hot-path Counter.Inc acquires Counter.mu"
	c.mu.Lock()
	c.v.Add(1)
	c.mu.Unlock()
}

type Gauge struct {
	bits atomic.Uint64
}

// good: atomic store.
func (g *Gauge) Set(v uint64) { g.bits.Store(v) }

type Histogram struct {
	mu    sync.Mutex
	count atomic.Uint64
}

// bad: the lock hides one call deep; the fixpoint summary surfaces it.
func (h *Histogram) Observe(v float64) { // want "obs hot-path Histogram.Observe acquires Histogram.mu"
	h.record(v)
}

func (h *Histogram) record(float64) {
	h.mu.Lock()
	h.count.Add(1)
	h.mu.Unlock()
}

type Sampler struct {
	state atomic.Uint64
}

// good: one atomic add and arithmetic.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return s.state.Add(1)%8 == 0
}

// Trace mirrors the pooled span recorder; its own mu is the one lock the
// allowance table permits on End and Spans.
type Trace struct {
	start time.Time
	mu    sync.Mutex
	spans []int64
}

type SpanStart struct {
	t0 time.Time
	ok bool
}

// good: reads the clock, acquires nothing.
func (t *Trace) Begin(pages, nodes, scored int64) SpanStart {
	if t == nil {
		return SpanStart{}
	}
	return SpanStart{t0: time.Now(), ok: true}
}

// good: Trace.mu is explicitly allowed for span recording.
func (t *Trace) End(s SpanStart, name string, shard, round int, pages, nodes, scored int64) {
	if t == nil || !s.ok {
		return
	}
	d := time.Since(s.t0).Microseconds()
	t.mu.Lock()
	t.spans = append(t.spans, d)
	t.mu.Unlock()
}

// good: same allowance as End.
func (t *Trace) Spans() []int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]int64, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	return out
}

type traceCtxKey struct{}

// good: a context lookup and a type assertion.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
