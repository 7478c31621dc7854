// Package pagefile provides the paged storage substrate shared by every
// access method in this repository (Gauss-tree, X-tree, sequential scan,
// VA-file), so that their page-access counts are directly comparable, as in
// the paper's efficiency experiments (Figure 7).
//
// A Manager mediates access to fixed-size pages held by a Backend (in-memory
// for tests and benchmarks, an ordinary file for persistence) through a
// sharded LRU buffer cache with a configurable byte budget — the paper uses a
// 50 MB cache that is cold-started before each experiment. A page's bytes
// live in one immutable page image, shared by the backend (a MemBackend keeps
// the image it was written; a FileBackend copies each slot into a fresh one),
// the cache and every reader. A cache entry holds the image or, for a client
// that decodes its pages (ReadDecoded, WriteDecoded — every engine), the
// decoded value in its place, which may view the image instead of copying
// it: one cached form per page, under the one budget, and no page held
// twice. The Manager counts logical page accesses, cache hits,
// physical reads, writes and disk seeks (non-contiguous physical reads), and
// converts them into an estimated I/O time under a classical seek+transfer
// disk cost model, which is how the paper's "overall time" metric is
// reproduced without 2006 disk hardware.
//
// The Manager is safe for concurrent use and its hot path is built for it:
// the buffer cache is sharded by page id with one short-held lock per shard
// (see cache.go), the closed flag and allocation frontier are atomics, and
// every I/O counter is atomic — so a cache hit never takes a whole-manager
// lock and parallel queries scale across cores. Allocator state (freelist,
// deferred frees) lives under its own small mutex, so cold accessors like
// NumPages and Allocate never contend with the read path. Backend I/O is
// serialized by a separate I/O mutex (the Backend contract), which also
// keeps the modeled disk-arm position consistent. Per-query attribution of
// page accesses — the foundation of the query-engine statistics in
// internal/query — goes through Counter: each query carries its own Counter
// down the read path via ReadCounted, and the global Stats remain the
// whole-manager aggregate.
//
// A FileBackend miss on 64-bit Linux is a memcpy, not a syscall: the file is
// mapped read-only and shared (MADV_RANDOM), the slot's page bytes are
// copied out of the mapping into a fresh image and the CRC is checked on
// that copy. The first read maps the file; a read past the mapping maps it
// again, twice as long as that read needs, and unmaps the old mapping at
// once (no view of it ever leaves the backend); Close unmaps. Both run under
// the I/O mutex. A fault during the copy (the file truncated underneath, a
// device error) is recovered through debug.SetPanicOnFault and returned as
// an error naming the page. Writes use WriteAt everywhere; other operating
// systems, 32-bit hosts and a file the kernel refuses to map read each slot
// with ReadAt. The benchmark's file workloads keep the OS page cache hot, so
// what they measure is this copy, not a device-cold read.
package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PageID identifies a page within a Manager. Pages are allocated densely
// starting at 0.
type PageID uint32

// NilPage is the sentinel for "no page".
const NilPage PageID = 0xFFFFFFFF

// DefaultPageSize is the page size used when none is configured.
const DefaultPageSize = 8192

// ErrClosed is returned after a Manager or Backend has been closed.
var ErrClosed = errors.New("pagefile: closed")

// Stats aggregates the I/O counters of a Manager. LogicalReads is the
// paper's "page accesses" metric; PhysicalReads and Seeks feed the disk
// cost model.
type Stats struct {
	// LogicalReads counts every page request, cached or not.
	LogicalReads uint64
	// CacheHits counts logical reads served from the buffer cache.
	CacheHits uint64
	// PhysicalReads counts reads that had to touch the backend.
	PhysicalReads uint64
	// Writes counts physical page writes.
	Writes uint64
	// Seeks counts physical reads whose page was not the immediate
	// successor of the previously read page (disk arm movement).
	Seeks uint64
}

// Add returns the elementwise sum of two stat snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		LogicalReads:  s.LogicalReads + o.LogicalReads,
		CacheHits:     s.CacheHits + o.CacheHits,
		PhysicalReads: s.PhysicalReads + o.PhysicalReads,
		Writes:        s.Writes + o.Writes,
		Seeks:         s.Seeks + o.Seeks,
	}
}

// Sub returns the elementwise difference s−o (for deltas between snapshots).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		LogicalReads:  s.LogicalReads - o.LogicalReads,
		CacheHits:     s.CacheHits - o.CacheHits,
		PhysicalReads: s.PhysicalReads - o.PhysicalReads,
		Writes:        s.Writes - o.Writes,
		Seeks:         s.Seeks - o.Seeks,
	}
}

// Counter attributes page accesses to one logical unit of work, typically a
// single query. A Counter is charged in addition to the Manager's global
// counters by ReadCounted; it is safe for concurrent use, so one Counter may
// be shared by the goroutines of a parallel query. The zero value is ready
// to use.
type Counter struct {
	logicalReads  atomic.Uint64
	cacheHits     atomic.Uint64
	physicalReads atomic.Uint64
}

// LogicalReads returns the number of page requests charged so far.
func (c *Counter) LogicalReads() uint64 { return c.logicalReads.Load() }

// CacheHits returns the number of charged reads served from the cache.
func (c *Counter) CacheHits() uint64 { return c.cacheHits.Load() }

// PhysicalReads returns the number of charged reads that touched the backend.
func (c *Counter) PhysicalReads() uint64 { return c.physicalReads.Load() }

// Reset zeroes the counter so it can be reused by a pooled query context.
// It must not race with concurrent charging.
func (c *Counter) Reset() {
	c.logicalReads.Store(0)
	c.cacheHits.Store(0)
	c.physicalReads.Store(0)
}

// CostModel converts I/O counters into time under the classical magnetic
// disk model: each seek pays SeekTime, each transferred page pays
// TransferTime.
type CostModel struct {
	SeekTime     time.Duration
	TransferTime time.Duration
}

// DefaultCostModel models a disk whose speed *relative to this
// implementation's CPU* matches the paper's 2006 testbed (dual Opteron +
// SCSI disk running Java: ~8 ms seeks, 0.2 ms transfers). This Go
// implementation evaluates densities roughly an order of magnitude faster
// than the 2006 system, so the modeled disk is scaled by the same factor —
// the reproduction target is the relative CPU/IO economics of the paper's
// "overall time" metric, not 2006 wall-clock numbers.
func DefaultCostModel() CostModel {
	return CostModel{SeekTime: 500 * time.Microsecond, TransferTime: 12500 * time.Nanosecond}
}

// IOTime returns the modeled I/O time for the counted physical operations.
func (cm CostModel) IOTime(s Stats) time.Duration {
	return time.Duration(s.Seeks)*cm.SeekTime +
		time.Duration(s.PhysicalReads+s.Writes)*cm.TransferTime
}

// Backend stores page images plus one durable meta record. Implementations
// need not be safe for concurrent use; the Manager serializes access.
//
// A page image is one page of bytes, exactly the page size, and it is
// immutable from the moment a backend or the cache has it: nobody writes to
// an image WritePage was given or ReadPage returned, so a backend may keep
// the one and hand the same image to every read, and a client may decode a
// page into views of its image.
type Backend interface {
	// ReadPage returns the page's image (zeroes for a page never written).
	ReadPage(id PageID) ([]byte, error)
	// WritePage persists one page image, which the backend may keep.
	WritePage(id PageID, image []byte) error
	// NumPages returns the number of pages ever allocated.
	NumPages() int
	// Sync flushes previously written pages and meta to stable storage.
	Sync() error
	// ReadMeta returns the last committed meta payload and its sequence
	// number; (nil, 0, nil) when nothing has been committed yet.
	ReadMeta() (payload []byte, seq uint64, err error)
	// WriteMeta durably records a meta payload under the given sequence
	// number without disturbing the previously committed record.
	WriteMeta(payload []byte, seq uint64) error
	// Close releases resources.
	Close() error
}

// Manager is a buffer-managed page store, safe for concurrent use. The hot
// read path is lock-light: closed state and the allocation frontier are
// atomics, counters are atomics, and a cache hit touches exactly one cache
// shard lock. Four coarser locks split the cold paths: allocMu guards the
// allocator (freelist, fresh-page set), epochMu guards the snapshot
// reclamation state (publish epoch, reader pins, freed-page limbo — see
// epoch.go), ioMu serializes backend access (the Backend contract) together
// with the disk-arm model and meta state, and each cache shard has its own
// lock. When locks nest the order is ioMu before epochMu before allocMu
// before a shard lock; shard locks never nest with each other.
type Manager struct {
	backend   Backend
	pageSize  int
	capacity  int // cache capacity in pages; 0 disables caching
	cache     pageCache
	costModel CostModel

	closed atomic.Bool
	next   atomic.Uint32 // allocation frontier, read lock-free by the hot path

	// allocMu guards the allocator: freelist, freshPages, and transitions
	// of next. The read path never takes it.
	allocMu  sync.Mutex
	freelist []PageID
	// freshPages tracks pages allocated since the last commit. Such a page
	// is provably not referenced by the committed state, so its release
	// skips the commit-before-reuse condition of the epoch limbo (see
	// epoch.go) — without this, large batched mutations (one commit at the
	// end) would grow the file by every intermediate page version.
	freshPages map[PageID]struct{}
	// newPages tracks pages allocated since the last epoch advance. Such a
	// page has never been part of a *published* tree snapshot either, so a
	// page that is both new and fresh bypasses the limbo entirely and is
	// recycled immediately — the within-mutation rewrite-churn fast path.
	newPages map[PageID]struct{}

	// epochMu guards the snapshot-reclamation state (epoch.go): the publish
	// epoch, reader pins, and the staged/limbo lists of freed pages. When
	// locks nest the order is ioMu before epochMu before allocMu.
	epochMu  sync.Mutex
	curEpoch uint64
	pins     map[uint64]int
	// staged holds pages released with FreeDeferred since the last epoch
	// advance or commit; they are stamped into limbo by either event.
	staged []limboPage
	// limbo holds epoch-stamped frees awaiting reclamation.
	limbo []limboPage

	// ioMu serializes backend access, the modeled disk-arm position and the
	// committed meta state.
	ioMu     sync.Mutex
	lastRead PageID
	haveLast bool
	// userMeta is the client payload of the last committed meta record.
	userMeta []byte
	// metaSeq is the committed meta sequence number; written under ioMu,
	// read lock-free by the reclamation path.
	metaSeq atomic.Uint64
	// freeBarrier is the sequence stamp given to new frees: a freed page is
	// crash-safe to reuse once metaSeq exceeds its stamp. While a commit is
	// in flight the barrier is already metaSeq+1, so a free that races the
	// commit (and therefore missed its persisted freelist) is not covered
	// by it.
	freeBarrier atomic.Uint64

	logicalReads  atomic.Uint64
	cacheHits     atomic.Uint64
	physicalReads atomic.Uint64
	writes        atomic.Uint64
	seeks         atomic.Uint64
}

// Option configures a Manager.
type Option func(*Manager)

// WithCacheBytes sets the buffer cache budget in bytes (default 50 MB,
// matching the paper's setup). A budget of 0 disables caching entirely.
func WithCacheBytes(n int) Option {
	return func(m *Manager) { m.capacity = n / m.pageSize }
}

// NewManager wraps a backend with a buffer cache. pageSize must be positive.
// When the backend holds a committed meta record, the allocator state (next
// page id and freelist) is restored from it, so a reopened file resumes
// exactly where the last commit left off; pages written after that commit
// are treated as never allocated.
func NewManager(backend Backend, pageSize int, opts ...Option) (*Manager, error) {
	if pageSize <= 0 {
		//lint:ignore errwrap constructor misconfiguration, not a runtime query error: no caller branches on it, so it wraps no sentinel.
		return nil, fmt.Errorf("pagefile: invalid page size %d", pageSize)
	}
	m := &Manager{
		backend:   backend,
		pageSize:  pageSize,
		costModel: DefaultCostModel(),
	}
	m.next.Store(uint32(backend.NumPages()))
	m.capacity = 50 << 20 / pageSize
	for _, o := range opts {
		o(m)
	}
	m.cache = newPageCache(m.capacity)
	payload, seq, err := backend.ReadMeta()
	if err != nil {
		return nil, err
	}
	if seq > 0 {
		next, freelist, user, err := decodeManagerMeta(payload)
		if err != nil {
			return nil, err
		}
		m.next.Store(uint32(next))
		m.freelist, m.userMeta = freelist, user
		m.metaSeq.Store(seq)
		m.freeBarrier.Store(seq)
	}
	return m, nil
}

// managerMetaVersion versions the Manager's portion of the meta payload.
const managerMetaVersion = 1

// encodeManagerMeta serializes the allocator state followed by the client
// payload: version (1) | next (4) | freelist length (4) | freelist ids (4
// each) | user payload.
func encodeManagerMeta(next PageID, freelist []PageID, user []byte) []byte {
	buf := make([]byte, 0, 9+4*len(freelist)+len(user))
	buf = append(buf, managerMetaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(next))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(freelist)))
	for _, id := range freelist {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return append(buf, user...)
}

func decodeManagerMeta(buf []byte) (next PageID, freelist []PageID, user []byte, err error) {
	if len(buf) < 9 {
		return 0, nil, nil, fmt.Errorf("pagefile: meta payload truncated (%d bytes)", len(buf))
	}
	if buf[0] != managerMetaVersion {
		return 0, nil, nil, fmt.Errorf("pagefile: unsupported meta version %d", buf[0])
	}
	next = PageID(binary.LittleEndian.Uint32(buf[1:]))
	// The count is corruption-controlled: bound it against the remaining
	// payload BEFORE any arithmetic on it — computing 9+4*n first would
	// overflow int on 32-bit platforms for counts near 2³⁰ and bypass the
	// check (and over-allocate wildly on 64-bit ones).
	n := int(binary.LittleEndian.Uint32(buf[5:]))
	if n < 0 || n > (len(buf)-9)/4 {
		return 0, nil, nil, fmt.Errorf("pagefile: meta freelist of %d ids overruns payload", n)
	}
	freelist = make([]PageID, n)
	for i := 0; i < n; i++ {
		freelist[i] = PageID(binary.LittleEndian.Uint32(buf[9+4*i:]))
	}
	return next, freelist, append([]byte(nil), buf[9+4*n:]...), nil
}

// PageSize returns the configured page size in bytes.
func (m *Manager) PageSize() int { return m.pageSize }

// NumPages returns the number of allocated pages (including freed ones). It
// is lock-free: cold observers never contend with the hot read path or the
// allocator.
func (m *Manager) NumPages() int {
	return int(m.next.Load())
}

// CostModel returns the configured disk cost model.
func (m *Manager) CostModel() CostModel { return m.costModel }

// Allocate reserves a fresh page (reusing freed pages first) and returns its
// id. The page's initial content is unspecified until the first Write.
func (m *Manager) Allocate() (PageID, error) {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	if m.closed.Load() {
		return NilPage, ErrClosed
	}
	var id PageID
	if n := len(m.freelist); n > 0 {
		id = m.freelist[n-1]
		m.freelist = m.freelist[:n-1]
	} else {
		id = PageID(m.next.Load())
		m.next.Store(uint32(id) + 1)
	}
	if m.freshPages == nil {
		m.freshPages = make(map[PageID]struct{})
	}
	m.freshPages[id] = struct{}{}
	if m.newPages == nil {
		m.newPages = make(map[PageID]struct{})
	}
	m.newPages[id] = struct{}{}
	return id, nil
}

// Free returns a page to the allocator for immediate reuse. The page's
// content becomes invalid. Clients that commit meta states (and need crash
// safety) must use FreeDeferred instead, because an immediately reused page
// may still be referenced by the last committed state. Like every other
// operation it reports ErrClosed on a closed manager.
func (m *Manager) Free(id PageID) error {
	// Drop the cached copy before the page becomes allocatable, so a
	// reallocation can never race an older cached image.
	m.cache.remove(id)
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	m.freelist = append(m.freelist, id)
	return nil
}

// FreeDeferred releases a page under the shadow-paging discipline extended
// with snapshot isolation: the page enters the epoch limbo (see epoch.go)
// and becomes allocatable only once (a) no reader pin can still reach a
// tree snapshot referencing it and (b) either the page was allocated after
// the last commit ("fresh") or a CommitMeta has landed since the free — the
// first moment the committed on-disk state provably no longer references
// it, so a crash at any point recovers the previous commit intact.
//
// The cached copy of the page is deliberately NOT evicted here: concurrent
// snapshot readers may still be traversing it. Eviction happens when the
// page is actually reclaimed.
//
// Like every other operation it reports ErrClosed on a closed manager.
func (m *Manager) FreeDeferred(id PageID) error {
	m.allocMu.Lock()
	if m.closed.Load() {
		m.allocMu.Unlock()
		return ErrClosed
	}
	_, fresh := m.freshPages[id]
	if fresh {
		delete(m.freshPages, id)
	}
	if _, isNew := m.newPages[id]; isNew && fresh {
		// Allocated after both the last commit and the last published
		// snapshot: neither the committed state nor any reader-visible
		// snapshot can reference the page, so recycle it on the spot —
		// rewriting the same node many times within one mutation reuses
		// one page slot instead of one per version.
		delete(m.newPages, id)
		// Evict the cached copy before the page becomes allocatable, so a
		// reallocation can never race an older cached image.
		m.cache.remove(id)
		m.freelist = append(m.freelist, id)
		m.allocMu.Unlock()
		return nil
	}
	m.allocMu.Unlock()
	m.epochMu.Lock()
	m.staged = append(m.staged, limboPage{id: id, seq: m.freeBarrier.Load(), fresh: fresh})
	m.epochMu.Unlock()
	return nil
}

// Read returns the content of a page without per-query attribution; it is
// ReadCounted with a nil Counter.
func (m *Manager) Read(id PageID) ([]byte, error) {
	return m.ReadCounted(id, nil)
}

// checkRead validates a read target without taking any lock.
func (m *Manager) checkRead(id PageID) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if next := m.next.Load(); uint32(id) >= next {
		return fmt.Errorf("pagefile: read of unallocated page %d (have %d)", id, next)
	}
	return nil
}

// chargeLogical and chargeHit charge one page request, respectively one
// cache hit, globally and, when c is non-nil, to the per-query Counter.
func (m *Manager) chargeLogical(c *Counter) {
	m.logicalReads.Add(1)
	if c != nil {
		c.logicalReads.Add(1)
	}
}

func (m *Manager) chargeHit(c *Counter) {
	m.cacheHits.Add(1)
	if c != nil {
		c.cacheHits.Add(1)
	}
}

// ReadCounted returns the image of a page, charging the access to the
// global counters and, when c is non-nil, to the per-query Counter. The
// image is immutable (see Backend): concurrent readers share it and nobody
// may write to it. The hit path takes exactly one cache shard lock and
// performs no copy or allocation.
//
// A page whose entry holds only a decoded form (ReadDecoded, WriteDecoded)
// is read from the backend like a miss and its bytes take the entry over:
// later byte reads hit, and the next ReadDecoded decodes them again.
func (m *Manager) ReadCounted(id PageID, c *Counter) ([]byte, error) {
	if err := m.checkRead(id); err != nil {
		return nil, err
	}
	m.chargeLogical(c)
	if data, _, ok := m.cache.get(id); ok && data != nil {
		m.chargeHit(c)
		return data, nil
	}
	data, _, err := m.readMiss(id, c, true)
	return data, err
}

// DecodeFunc turns the image of page id into a client's decoded form. The
// image is immutable and lives as long as anything refers to it, so the
// result may hold views of it instead of copies; the result is shared by
// every reader of the page, so it must be immutable too.
type DecodeFunc func(id PageID, page []byte) (any, error)

// ReadDecoded returns the decoded form of a page, charging counters exactly
// like ReadCounted. A hit on an entry that holds the decoded form is one
// cache shard lock. Otherwise the page's image — cached, or the backend's —
// is decoded outside every manager lock and the decoded form takes the entry
// in place of the image. A cache-disabled manager reads and decodes on every
// call.
//
// The decoded form is inserted after ioMu has been released, so the caller
// must exclude a concurrent Write of the same page, or the insert could bury
// the written form under a stale one. Clients that only read pages reachable
// from a pinned epoch (see epoch.go) get that for free: such a page is not
// allocatable, so nobody writes it, and once it has been recycled the
// reclamation dropped its entry before the id could be written again.
func (m *Manager) ReadDecoded(id PageID, c *Counter, decode DecodeFunc) (any, error) {
	if err := m.checkRead(id); err != nil {
		return nil, err
	}
	m.chargeLogical(c)
	data, decoded, ok := m.cache.get(id)
	var err error
	if ok {
		m.chargeHit(c)
	} else {
		data, decoded, err = m.readMiss(id, c, false)
	}
	if err == nil && decoded == nil {
		if decoded, err = decode(id, data); err == nil {
			m.cache.insert(id, nil, decoded)
		}
	}
	if err != nil {
		return nil, err
	}
	return decoded, nil
}

// VerifyPage returns the image of one page read directly from the backend,
// bypassing the buffer cache so the page's on-disk image — not a cached
// copy — is what gets checked; file backends re-verify the CRC trailer on
// every physical read. It is the integrity scrubber's read primitive: the
// access is deliberately not charged to the I/O counters or the modeled disk
// arm, so a background scrub does not skew the paper's page-access metrics,
// and the cache is not polluted (nor repaired — a later Read of the same
// page still serves the cached copy).
func (m *Manager) VerifyPage(id PageID) ([]byte, error) {
	if err := m.checkRead(id); err != nil {
		return nil, err
	}
	m.ioMu.Lock()
	defer m.ioMu.Unlock()
	if m.closed.Load() {
		return nil, ErrClosed
	}
	return m.backend.ReadPage(id)
}

// readMiss is the one miss path: it reads the page's image from the backend
// under ioMu. A byte reader (wantBytes) hands the image to the cache; a
// decoding reader caches what it decodes from it. If a concurrent reader
// cached the page while this one waited for ioMu, that entry's form is
// returned — unless it is a decoded form and the caller wants bytes.
func (m *Manager) readMiss(id PageID, c *Counter, wantBytes bool) (data []byte, decoded any, err error) {
	m.ioMu.Lock()
	defer m.ioMu.Unlock()
	if m.closed.Load() {
		return nil, nil, ErrClosed
	}
	if data, decoded, ok := m.cache.get(id); ok && (data != nil || !wantBytes) {
		m.chargeHit(c)
		return data, decoded, nil
	}
	data, err = m.backend.ReadPage(id)
	if err != nil {
		return nil, nil, err
	}
	m.physicalReads.Add(1)
	if c != nil {
		c.physicalReads.Add(1)
	}
	if !m.haveLast || id != m.lastRead+1 {
		m.seeks.Add(1)
	}
	m.lastRead, m.haveLast = id, true
	if wantBytes {
		m.cache.insert(id, data, nil)
	}
	return data, nil, nil
}

// Write persists a page. data must be at most one page long; shorter data is
// zero-padded to the page size. The write is write-through: the backend and
// the cache are updated together.
func (m *Manager) Write(id PageID, data []byte) error {
	return m.WriteDecoded(id, data, nil)
}

// WriteDecoded is Write for a client that decodes its pages: the zero-padded
// image goes to the backend and decode, the client's DecodeFunc, makes the
// cache's form of it, exactly as a ReadDecoded miss would — so the next
// ReadDecoded of the page decodes nothing. A decode error fails the write
// before the backend sees the page. A nil decode caches the image.
func (m *Manager) WriteDecoded(id PageID, data []byte, decode DecodeFunc) error {
	m.ioMu.Lock()
	defer m.ioMu.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	if next := m.next.Load(); uint32(id) >= next {
		return fmt.Errorf("pagefile: write of unallocated page %d (have %d)", id, next)
	}
	if len(data) > m.pageSize {
		return fmt.Errorf("pagefile: page overflow: %d bytes > page size %d", len(data), m.pageSize)
	}
	image := make([]byte, m.pageSize)
	copy(image, data)
	var decoded any
	if decode != nil {
		var err error
		if decoded, err = decode(id, image); err != nil {
			return err
		}
	}
	if err := m.backend.WritePage(id, image); err != nil {
		return err
	}
	m.writes.Add(1)
	if decoded != nil {
		image = nil // the decoded form takes the entry
	}
	m.cache.insert(id, image, decoded)
	return nil
}

// DropCache empties the buffer cache (the paper's cold start) and forgets
// disk-arm position so the next physical read counts as a seek.
func (m *Manager) DropCache() {
	m.ioMu.Lock()
	m.cache.clear()
	m.haveLast = false
	m.ioMu.Unlock()
}

// Stats returns a snapshot of the I/O counters. Under concurrent load the
// fields are individually, not mutually, consistent.
func (m *Manager) Stats() Stats {
	return Stats{
		LogicalReads:  m.logicalReads.Load(),
		CacheHits:     m.cacheHits.Load(),
		PhysicalReads: m.physicalReads.Load(),
		Writes:        m.writes.Load(),
		Seeks:         m.seeks.Load(),
	}
}

// ResetStats zeroes the I/O counters.
func (m *Manager) ResetStats() {
	m.logicalReads.Store(0)
	m.cacheHits.Store(0)
	m.physicalReads.Store(0)
	m.writes.Store(0)
	m.seeks.Store(0)
}

// CachedPages returns the number of pages currently held in the cache.
func (m *Manager) CachedPages() int {
	return m.cache.len()
}

// CommitMeta durably commits a client meta payload together with the
// allocator state (next page id and freelist, including pages released with
// FreeDeferred since the previous commit). The write-barrier sequence is:
// flush all data pages, write the alternate meta slot, flush again — so the
// new meta record only becomes the committed state once every page it
// references is durable, and a crash at any intermediate point recovers the
// previous commit.
//
// When the freelist has grown past what one meta slot can hold, the
// overflowing tail is dropped from the persisted copy (those pages leak on
// the next reopen); correctness is never traded for space.
func (m *Manager) CommitMeta(user []byte) error {
	m.ioMu.Lock()
	defer m.ioMu.Unlock()
	// Snapshot the pages free as of this commit: the live freelist plus
	// every freed page still parked in the epoch limbo. The committed
	// state references none of them, so all must appear in the persisted
	// freelist — a limbo page held only by an in-memory reader pin would
	// otherwise leak on the next reopen.
	m.epochMu.Lock()
	// Raise the free barrier first: a FreeDeferred racing this commit will
	// miss the freelist snapshot below, so it must not be covered by this
	// commit's sequence number either.
	m.freeBarrier.Store(m.metaSeq.Load() + 1)
	inLimbo := make([]PageID, 0, len(m.staged)+len(m.limbo))
	for _, p := range m.staged {
		inLimbo = append(inLimbo, p.id)
	}
	for _, p := range m.limbo {
		inLimbo = append(inLimbo, p.id)
	}
	m.epochMu.Unlock()
	m.allocMu.Lock()
	if m.closed.Load() {
		m.allocMu.Unlock()
		return ErrClosed
	}
	next := PageID(m.next.Load())
	merged := make([]PageID, 0, len(m.freelist)+len(inLimbo))
	merged = append(append(merged, m.freelist...), inLimbo...)
	m.allocMu.Unlock()

	persisted := merged
	if maxIDs := (MetaCapacity(m.pageSize) - 9 - len(user)) / 4; maxIDs < 0 {
		return fmt.Errorf("pagefile: meta payload of %d bytes cannot fit a page of %d bytes", len(user), m.pageSize)
	} else if len(persisted) > maxIDs {
		persisted = persisted[:maxIDs]
	}
	payload := encodeManagerMeta(next, persisted, user)

	if err := m.backend.Sync(); err != nil {
		return err
	}
	if err := m.backend.WriteMeta(payload, m.metaSeq.Load()+1); err != nil {
		return err
	}
	if err := m.backend.Sync(); err != nil {
		return err
	}
	m.metaSeq.Add(1)
	m.userMeta = append(make([]byte, 0, len(user)), user...)
	m.allocMu.Lock()
	// Every page is now potentially referenced by the committed state;
	// clearing is conservative for pages allocated during the commit I/O
	// (they merely lose the fresh fast path through the limbo).
	m.freshPages = nil
	m.allocMu.Unlock()
	// The commit satisfies the crash-safety condition for every limbo entry
	// staged before it; stamp and reclaim whatever reader pins allow.
	m.epochMu.Lock()
	m.stampStagedLocked()
	freed := m.reclaimLocked()
	m.epochMu.Unlock()
	m.recycle(freed)
	return nil
}

// Meta returns a copy of the client payload of the last committed meta
// record, or nil when nothing has been committed.
func (m *Manager) Meta() []byte {
	m.ioMu.Lock()
	defer m.ioMu.Unlock()
	if m.userMeta == nil {
		return nil
	}
	return append([]byte(nil), m.userMeta...)
}

// MetaSeq returns the sequence number of the last committed meta record
// (0 = none). It is lock-free.
func (m *Manager) MetaSeq() uint64 {
	return m.metaSeq.Load()
}

// Sync flushes all written pages to stable storage.
func (m *Manager) Sync() error {
	m.ioMu.Lock()
	defer m.ioMu.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	return m.backend.Sync()
}

// Close flushes the backend to stable storage and closes it, so pages
// written through the Manager are never lost to a missing final sync.
// Subsequent operations fail with ErrClosed.
func (m *Manager) Close() error {
	m.ioMu.Lock()
	defer m.ioMu.Unlock()
	if m.closed.Swap(true) {
		return nil
	}
	syncErr := m.backend.Sync()
	if err := m.backend.Close(); err != nil {
		return err
	}
	return syncErr
}
