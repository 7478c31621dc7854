// Package fault is the runtime chaos layer: an Injector that wraps a live
// pagefile.Backend and hooks into the write-ahead log's committer so I/O
// errors, fsync failures, torn writes and added latency can be injected
// into a *running* daemon on a schedule. The deterministic crash tests use
// the same layer (Rule.After is their write budget), so there is one fault
// injector from unit test to production chaos.
//
// The layer is built to cost nothing when idle: a disarmed Injector is one
// atomic load per I/O, and an index opened without Options.Fault is never
// wrapped at all. Arming happens through gaussd's loopback-only -ops-addr
// listener (POST /debug/fault, gated behind the -chaos flag), so the chaos
// surface is off by default and never reachable from the query network.
//
// Faults are classified by Op (page read/write/sync, meta write, WAL
// write/sync); a Schedule maps each Op to a Rule (probability, fail-after
// countdown, fault cap, torn writes, latency). The injected error wraps
// ErrInjected so chaos harnesses can tell injected faults from real ones
// with errors.Is.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gauss-tree/gausstree/internal/pagefile"
)

// ErrInjected is the root of every error the Injector produces; chaos
// harnesses use errors.Is(err, fault.ErrInjected) to separate injected
// faults from real I/O errors.
var ErrInjected = errors.New("fault: injected I/O error")

// Op classifies one injectable I/O operation.
type Op string

// The injectable operation classes. Page ops cover the page store (reads
// verify CRC trailers, writes and syncs make mutations durable), meta
// covers the shadow-paging commit record, WAL ops cover the group-commit
// log's write and fsync path.
const (
	OpPageRead  Op = "page_read"
	OpPageWrite Op = "page_write"
	OpPageSync  Op = "page_sync"
	OpMetaWrite Op = "meta_write"
	OpWALWrite  Op = "wal_write"
	OpWALSync   Op = "wal_sync"
)

// Ops lists every operation class a Schedule may reference, for validation
// and for the /debug/fault endpoint's documentation of itself.
func Ops() []Op {
	return []Op{OpPageRead, OpPageWrite, OpPageSync, OpMetaWrite, OpWALWrite, OpWALSync}
}

// Rule says how one operation class misbehaves while the schedule is armed.
// The zero value injects nothing.
type Rule struct {
	// Prob injects a fault on each operation with this probability, in [0,1].
	Prob float64 `json:"prob,omitempty"`
	// After, when positive, injects a fault on every operation past the
	// first After successful ones — the deterministic "budget" mode of the
	// crash tests.
	After int `json:"after,omitempty"`
	// MaxFaults, when positive, stops injecting after this many faults for
	// this operation class, so a schedule can poison exactly once.
	MaxFaults int `json:"max_faults,omitempty"`
	// Torn makes an injected page_write fault leave a half-written page
	// behind (torn write) instead of failing cleanly, exercising the CRC
	// trailer detection. Ignored for other operation classes.
	Torn bool `json:"torn,omitempty"`
	// LatencyMS adds this much latency to every operation of the class,
	// faulted or not — a slow disk, not a broken one.
	LatencyMS int64 `json:"latency_ms,omitempty"`
}

// active reports whether the rule can ever do anything.
func (r Rule) active() bool {
	return r.Prob > 0 || r.After > 0 || r.LatencyMS > 0
}

// Schedule is one armed fault configuration: per-op rules plus an optional
// seed (reproducible chaos) and duration (auto-disarm).
type Schedule struct {
	// Seed seeds the schedule's private RNG; 0 seeds from the clock.
	Seed int64 `json:"seed,omitempty"`
	// DurationMS auto-disarms the schedule this long after arming; 0 keeps
	// it armed until an explicit Disarm.
	DurationMS int64 `json:"duration_ms,omitempty"`
	// Ops maps operation classes to their rules.
	Ops map[Op]Rule `json:"ops"`
}

// ErrInvalidSchedule is the sentinel wrapped by every Validate rejection,
// so callers (gaussd's /debug/fault handler) can map schedule mistakes to
// a 400 with errors.Is.
var ErrInvalidSchedule = errors.New("fault: invalid schedule")

// Validate rejects schedules that could never be intended: unknown ops or
// probabilities outside [0,1].
func (s Schedule) Validate() error {
	known := make(map[Op]bool, 6)
	for _, op := range Ops() {
		known[op] = true
	}
	for op, r := range s.Ops {
		if !known[op] {
			return fmt.Errorf("%w: unknown op %q (known: %v)", ErrInvalidSchedule, op, Ops())
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("%w: op %q probability %g outside [0,1]", ErrInvalidSchedule, op, r.Prob)
		}
		if r.After < 0 || r.MaxFaults < 0 || r.LatencyMS < 0 {
			return fmt.Errorf("%w: op %q has a negative after/max_faults/latency_ms", ErrInvalidSchedule, op)
		}
	}
	return nil
}

// Status is a point-in-time snapshot of an Injector, served by gaussd's
// GET /debug/fault.
type Status struct {
	// Armed reports whether a schedule is currently active.
	Armed bool `json:"armed"`
	// Schedule is the active schedule when armed.
	Schedule *Schedule `json:"schedule,omitempty"`
	// Seen counts operations that consulted the injector per op class,
	// since the last Arm.
	Seen map[Op]uint64 `json:"seen,omitempty"`
	// Injected counts faults actually injected per op class, since the
	// last Arm.
	Injected map[Op]uint64 `json:"injected,omitempty"`
}

// Injector decides, per I/O operation, whether to inject a fault. One
// Injector may wrap many backends and WAL logs (e.g. every shard of a
// sharded index); its counters aggregate across them. The zero value is
// usable and disarmed; the disarmed fast path is a single atomic load.
type Injector struct {
	armed atomic.Bool

	mu       sync.Mutex
	sched    Schedule
	deadline time.Time // zero = no auto-disarm
	rng      *rand.Rand
	seen     map[Op]uint64
	injected map[Op]uint64
}

// New returns a disarmed Injector.
func New() *Injector { return &Injector{} }

// Arm activates the schedule, resetting all counters. An already armed
// injector is re-armed with the new schedule.
func (inj *Injector) Arm(s Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	seed := s.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	inj.mu.Lock()
	inj.sched = s
	inj.rng = rand.New(rand.NewSource(seed))
	inj.seen = make(map[Op]uint64, len(s.Ops))
	inj.injected = make(map[Op]uint64, len(s.Ops))
	inj.deadline = time.Time{}
	if s.DurationMS > 0 {
		inj.deadline = time.Now().Add(time.Duration(s.DurationMS) * time.Millisecond)
	}
	inj.mu.Unlock()
	inj.armed.Store(true)
	return nil
}

// Disarm deactivates the injector; counters from the last schedule remain
// readable through Status until the next Arm.
func (inj *Injector) Disarm() {
	inj.armed.Store(false)
}

// Status snapshots the injector's state and counters.
func (inj *Injector) Status() Status {
	st := Status{Armed: inj.armed.Load()}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if st.Armed {
		sched := inj.sched
		st.Schedule = &sched
	}
	if len(inj.seen) > 0 {
		st.Seen = make(map[Op]uint64, len(inj.seen))
		for op, n := range inj.seen {
			st.Seen[op] = n
		}
	}
	if len(inj.injected) > 0 {
		st.Injected = make(map[Op]uint64, len(inj.injected))
		for op, n := range inj.injected {
			st.Injected[op] = n
		}
	}
	return st
}

// decision is the outcome of consulting the injector for one operation.
type decision struct {
	err  error
	torn bool
}

// decide consults the armed schedule for op. The disarmed (or nil) path is
// branch-predictable and lock-free; the armed path takes the injector lock
// and sleeps any configured latency outside it.
func (inj *Injector) decide(op Op) decision {
	if inj == nil || !inj.armed.Load() {
		return decision{}
	}
	inj.mu.Lock()
	if !inj.deadline.IsZero() && time.Now().After(inj.deadline) {
		inj.mu.Unlock()
		// The schedule expired: auto-disarm and let the operation through.
		inj.armed.Store(false)
		return decision{}
	}
	rule, ok := inj.sched.Ops[op]
	if !ok || !rule.active() {
		inj.mu.Unlock()
		return decision{}
	}
	inj.seen[op]++
	fire := false
	if rule.Prob > 0 && inj.rng.Float64() < rule.Prob {
		fire = true
	}
	if rule.After > 0 && inj.seen[op] > uint64(rule.After) {
		fire = true
	}
	if fire && rule.MaxFaults > 0 && inj.injected[op] >= uint64(rule.MaxFaults) {
		fire = false
	}
	if fire {
		inj.injected[op]++
	}
	latency := time.Duration(rule.LatencyMS) * time.Millisecond
	torn := fire && rule.Torn
	inj.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	if !fire {
		return decision{}
	}
	return decision{err: fmt.Errorf("%w: %s", ErrInjected, op), torn: torn}
}

// BeforeWALWrite implements the write-ahead log's fault hook: a non-nil
// error makes the committer's batch write fail before touching the file.
func (inj *Injector) BeforeWALWrite() error { return inj.decide(OpWALWrite).err }

// BeforeWALSync implements the write-ahead log's fault hook for the group
// commit's fsync.
func (inj *Injector) BeforeWALSync() error { return inj.decide(OpWALSync).err }

// WrapBackend interposes the injector between the page manager and its
// backend. A nil injector returns the backend unwrapped, so an index opened
// without fault injection pays nothing. The wrapper forwards the read-into
// method (pagefile.ImageReader) exactly when the inner backend has it.
func WrapBackend(inner pagefile.Backend, inj *Injector) pagefile.Backend {
	if inj == nil {
		return inner
	}
	b := &backend{inner: inner, inj: inj}
	if r, ok := inner.(pagefile.ImageReader); ok {
		return imageBackend{b, r}
	}
	return b
}

// backend is the fault-injecting pagefile.Backend decorator.
type backend struct {
	inner pagefile.Backend
	inj   *Injector
}

// imageBackend is backend over an inner pagefile.ImageReader.
type imageBackend struct {
	*backend
	reader pagefile.ImageReader
}

func (b *backend) ReadPage(id pagefile.PageID) ([]byte, error) {
	if d := b.inj.decide(OpPageRead); d.err != nil {
		return nil, d.err
	}
	return b.inner.ReadPage(id)
}

func (b imageBackend) ReadPageInto(id pagefile.PageID, image []byte) ([]byte, error) {
	if d := b.inj.decide(OpPageRead); d.err != nil {
		return nil, d.err
	}
	return b.reader.ReadPageInto(id, image)
}

func (b *backend) WritePage(id pagefile.PageID, image []byte) error {
	d := b.inj.decide(OpPageWrite)
	if d.err == nil {
		return b.inner.WritePage(id, image)
	}
	if d.torn && len(image) > 1 {
		// A torn write: the first half of the page reaches the platter, the
		// rest is lost mid-flight. The CRC trailer makes the page
		// unreadable, which is exactly what the scrubber and the recovery
		// path must detect. The half-page is padded back to a full page so
		// backends that require exact page-sized writes accept it; it is a
		// fresh image, because the one given is immutable.
		torn := make([]byte, len(image))
		copy(torn, image[:len(image)/2])
		if werr := b.inner.WritePage(id, torn); werr != nil {
			return fmt.Errorf("%w (torn write also failed: %v)", d.err, werr)
		}
	}
	return d.err
}

func (b *backend) Sync() error {
	if d := b.inj.decide(OpPageSync); d.err != nil {
		return d.err
	}
	return b.inner.Sync()
}

func (b *backend) WriteMeta(payload []byte, seq uint64) error {
	if d := b.inj.decide(OpMetaWrite); d.err != nil {
		return d.err
	}
	return b.inner.WriteMeta(payload, seq)
}

func (b *backend) ReadMeta() ([]byte, uint64, error) { return b.inner.ReadMeta() }
func (b *backend) NumPages() int                     { return b.inner.NumPages() }
func (b *backend) Close() error                      { return b.inner.Close() }
