package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed phase of a traced query: a name, its offset and
// duration relative to the trace start, and the page / node / scored-vector
// work it performed (deltas over the phase, not cumulative totals). Shard
// and Round attribute the phase to a shard coordinator's fan-out — both are
// -1 on spans that are not shard- or round-scoped.
type Span struct {
	Name    string `json:"name"`
	Shard   int    `json:"shard"`
	Round   int    `json:"round"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Pages   int64  `json:"pages"`
	Nodes   int64  `json:"nodes"`
	Scored  int64  `json:"scored"`
}

// Trace accumulates the spans of one query. Traces are pooled (NewTrace /
// Release) and every method is safe on a nil receiver: unsampled queries
// carry a nil *Trace and pay only a nil check per instrumentation point —
// no allocation, no time syscall, no lock. Span recording locks a Trace-
// local mutex because a shard coordinator's fan-out goroutines append
// concurrently.
type Trace struct {
	id    string
	start time.Time
	mu    sync.Mutex
	spans []Span
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace takes a trace from the pool, stamps its start time and gives it
// id (or a fresh random id when empty).
func NewTrace(id string) *Trace {
	t := tracePool.Get().(*Trace)
	if id == "" {
		id = NewID()
	}
	t.id = id
	t.start = time.Now()
	t.spans = t.spans[:0]
	return t
}

// Release returns the trace to the pool. The caller must not touch it
// afterwards. No-op on nil.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.id = ""
	t.start = time.Time{}
	tracePool.Put(t)
}

// ID reports the trace id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetID renames the trace, so a server can adopt a client-chosen
// correlation id after decoding the request. No-op on nil or empty id.
func (t *Trace) SetID(id string) {
	if t == nil || id == "" {
		return
	}
	t.id = id
}

// Spans returns a copy of the recorded spans (nil on a nil trace).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	return out
}

// SpanStart is the opening bookmark of a span: the wall-clock start and the
// caller's cumulative work counters at that instant. Obtain one from Begin,
// close it with End; the zero value (from a nil trace) makes End a no-op.
type SpanStart struct {
	t0     time.Time
	pages  int64
	nodes  int64
	scored int64
	ok     bool
}

// Begin opens a span, snapshotting the caller's cumulative pages / nodes /
// scored counters so End can record deltas. On a nil trace it returns an
// inert SpanStart without reading the clock.
func (t *Trace) Begin(pages, nodes, scored int64) SpanStart {
	if t == nil {
		return SpanStart{}
	}
	return SpanStart{t0: time.Now(), pages: pages, nodes: nodes, scored: scored, ok: true}
}

// End closes a span opened by Begin, recording name, shard/round
// attribution (-1 when not applicable) and the work deltas since Begin.
// No-op on a nil trace or an inert SpanStart.
func (t *Trace) End(s SpanStart, name string, shard, round int, pages, nodes, scored int64) {
	if t == nil || !s.ok {
		return
	}
	now := time.Now()
	sp := Span{
		Name:    name,
		Shard:   shard,
		Round:   round,
		StartUS: s.t0.Sub(t.start).Microseconds(),
		DurUS:   now.Sub(s.t0).Microseconds(),
		Pages:   pages - s.pages,
		Nodes:   nodes - s.nodes,
		Scored:  scored - s.scored,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

type traceCtxKey struct{}

// WithTrace attaches t to the context; a nil trace returns ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom extracts the trace attached by WithTrace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// idState seeds trace-id generation with the process start time; NewID
// advances it with a splitmix64 step, so ids are unique per process and
// effectively unique across processes.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()))
}

// NewID returns a 16-hex-digit random trace id.
func NewID() string {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[x&0xf]
		x >>= 4
	}
	return string(b[:])
}

// Sampler makes a keep/drop decision at a configured rate using a cheap
// lock-free splitmix64 stream — one atomic add and a few multiplies per
// call, safe for concurrent use. A nil Sampler never samples.
type Sampler struct {
	threshold uint64
	state     atomic.Uint64
}

// NewSampler returns a sampler keeping approximately rate (clamped to
// [0, 1]) of decisions. Rate 0 returns an always-false sampler; rate >= 1
// an always-true one.
func NewSampler(rate float64) *Sampler {
	s := &Sampler{}
	switch {
	case rate <= 0:
		s.threshold = 0
	case rate >= 1:
		s.threshold = ^uint64(0)
	default:
		s.threshold = uint64(rate * float64(1<<63) * 2)
	}
	s.state.Store(uint64(time.Now().UnixNano()) ^ 0x6a09e667f3bcc909)
	return s
}

// Sample reports whether this decision is kept.
func (s *Sampler) Sample() bool {
	if s == nil || s.threshold == 0 {
		return false
	}
	if s.threshold == ^uint64(0) {
		return true
	}
	x := s.state.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x < s.threshold
}
