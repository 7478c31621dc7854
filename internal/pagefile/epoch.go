package pagefile

import (
	"sync"
	"sync/atomic"
)

// Reclamation: one grace period for pages and page images.
//
// Shadow paging (FreeDeferred + CommitMeta) protects the committed on-disk
// state from premature page reuse, but snapshot-isolated readers add a
// second constraint: a page may still be referenced by a published
// *in-memory* tree snapshot that some reader is traversing without any
// lock, and a page image a pinned reader decoded may still be viewed by it.
// One rule covers both: nothing a pinned reader can still see is reused.
//
// A reader brackets its traversal with PinEpoch/UnpinEpoch; a writer calls
// AdvanceEpoch after publishing each new tree state. The pins count in two
// reader generations (generations): a pin counts in the current one, and
// what leaves the readers' reach retires into the current one's lists — the
// pages FreeDeferred staged since the previous advance, moved there by
// AdvanceEpoch, and the owned page images leaving the cache. Once the other
// generation holds no pin, what it retired has passed its grace, and if the
// current one has retired anything it hands over: new pins count in the
// other counter, so what it retired waits only for the pins it already
// holds (the grace period of epoch-based reclamation: Fraser, "Practical
// lock-freedom", 2004; Hart et al., JPDC 2007). An image that passed its
// grace returns to the pool at once. A page becomes ready, and joins the
// freelist once it is also crash-safe: it was allocated after the last
// commit ("fresh", so the committed state never referenced it) or a commit
// has landed since its free. Until then it waits for the next commit.
//
// The order that makes a page's grace enough: a reader pins first and loads
// the published snapshot second, while a writer publishes the new snapshot
// first and advances second. A page a mutation freed retires only at the
// advance after the publish, so every reader that can hold a snapshot
// referencing it pinned before it retired, and the page waits for that pin.
// A commit, which lands before the publish, moves no page into the grace
// period: the published snapshot still references what it freed.
//
// Page image recycling. A manager over a backend that reads into its
// caller's images (ImageReader: FileBackend) owns the image of every page a
// pinned reader misses on (ReadDecoded with a Pin): the image comes from a
// package-level pool, one sync.Pool per page size that the GC drains, and the
// backend copies the slot into it and checks the CRC there (a fresh image
// when the pool is empty). The page's cache entry holds the image, and the
// decoded form attached to it may view it; when the entry leaves the cache —
// evicted, removed by a free or a failed decode, its image replaced by a
// write, DropCache or Close — the image retires. A pinned reader uses what
// it read only while it holds its pin, so once the pins that could see it
// are gone nobody can. Images awaiting their grace never exceed the cache's
// page budget; one retired beyond it is left to the GC. Pages are never
// dropped.
//
// The escape rule keeps every other reader's images immutable for good: a
// VerifyPage and a miss without a pin get a fresh image that is never
// recycled, a read without a pin (ReadCounted, ReadDecoded with the zero
// Pin) marks the entry's image escaped — the entry forgets it, so it is never
// retired nor handed out again — and an image the backend keeps (MemBackend)
// is never owned.
//
// The generations' lock is a leaf: an image retires under a cache shard
// lock, which reclaim and FreeDeferred's immediate recycling take under
// allocMu. A generation may therefore pass its grace where no other lock may
// be taken, so moving its ready pages out of the cache and onto the freelist
// waits for the next UnpinEpoch, AdvanceEpoch or CommitMeta.

// Pin is a reader's hold on a Manager, taken by PinEpoch and released by
// UnpinEpoch: no page freed and no page image retired while it is held is
// reused before it is released. The zero Pin holds nothing.
type Pin struct {
	// gen is 1 + the reader generation the pin counts in.
	gen uint8
}

// generations is a manager's grace-period state.
type generations struct {
	mu   sync.Mutex
	cur  uint8
	pins [2]int
	// since is the publish epoch at which each generation became current.
	since [2]uint64
	// retired and pages are the owned images and the freed pages each
	// generation retired.
	retired [2][]*[]byte
	pages   [2][]limboPage
	// staged holds the pages freed since the last advance; ready the pages
	// that passed their grace, for the freelist; waiting those of them that
	// await a commit.
	staged  []limboPage
	ready   []limboPage
	waiting []limboPage
	// epoch is the publish epoch, advanced under mu and read lock-free.
	epoch atomic.Uint64
	// limit caps the images awaiting their grace at the cache's capacity.
	limit int
	pool  *sync.Pool
}

// imagePools holds the pool of recycled page images of each page size
// (int → *sync.Pool), shared by every Manager of that size.
var imagePools sync.Map

// retire hands in an owned image that left the cache.
func (g *generations) retire(image *[]byte) {
	g.mu.Lock()
	if len(g.retired[0])+len(g.retired[1]) < g.limit {
		g.retired[g.cur] = append(g.retired[g.cur], image)
		g.advanceLocked()
	}
	g.mu.Unlock()
}

// advanceLocked ends the other generation's grace once it holds no pin — its
// images return to the pool, its pages become ready — and then, if the
// current generation has retired anything, makes the other one current.
// Caller holds g.mu.
func (g *generations) advanceLocked() {
	for {
		other := g.cur ^ 1
		if g.pins[other] != 0 {
			return
		}
		for _, image := range g.retired[other] {
			g.pool.Put(image)
		}
		clear(g.retired[other])
		g.retired[other] = g.retired[other][:0]
		g.ready = append(g.ready, g.pages[other]...)
		g.pages[other] = g.pages[other][:0]
		if len(g.retired[g.cur]) == 0 && len(g.pages[g.cur]) == 0 {
			return
		}
		g.cur = other
		g.since[other] = g.epoch.Load()
	}
}

// limboPage is one freed page awaiting reclamation.
type limboPage struct {
	id PageID
	// seq is the meta sequence number at free time; the crash-safety
	// condition is metaSeq > seq (a commit landed after the free).
	seq uint64
	// fresh marks a page allocated after the last commit: the committed
	// state never referenced it, so the crash-safety condition is waived.
	fresh bool
}

// PinEpoch registers a reader pin. Pages freed and page images retired after
// it are not reused until the pin is released with UnpinEpoch. Pinning never
// blocks and never fails; the caller must load the published tree snapshot
// only AFTER pinning.
func (m *Manager) PinEpoch() Pin {
	g := &m.gens
	g.mu.Lock()
	c := g.cur
	g.pins[c]++
	g.mu.Unlock()
	return Pin{gen: c + 1}
}

// UnpinEpoch releases a pin taken with PinEpoch and reclaims the pages and
// page images it was the last to hold back. Releasing the zero Pin does
// nothing.
func (m *Manager) UnpinEpoch(p Pin) {
	if p.gen == 0 {
		return
	}
	g := &m.gens
	g.mu.Lock()
	g.pins[p.gen-1]--
	g.advanceLocked()
	ready := len(g.ready) != 0
	g.mu.Unlock()
	if ready {
		m.reclaim()
	}
}

// AdvanceEpoch retires the pages freed since the previous advance into the
// current reader generation, bumps the publish epoch, and reclaims whatever
// has become safe. The writer must call it AFTER publishing the new tree
// snapshot (see the ordering argument at the top of this file). Returns the
// new epoch.
func (m *Manager) AdvanceEpoch() uint64 {
	g := &m.gens
	g.mu.Lock()
	g.pages[g.cur] = append(g.pages[g.cur], g.staged...)
	g.staged = g.staged[:0]
	e := g.epoch.Add(1)
	g.advanceLocked()
	ready := len(g.ready) != 0
	g.mu.Unlock()
	// Pages allocated before this advance are now (potentially) part of a
	// published snapshot and lose the immediate-recycle fast path.
	m.allocMu.Lock()
	m.newPages = nil
	m.allocMu.Unlock()
	if ready {
		m.reclaim()
	}
	return e
}

// Epoch returns the current publish epoch.
func (m *Manager) Epoch() uint64 { return m.gens.epoch.Load() }

// PinnedReaders returns the number of outstanding pins.
func (m *Manager) PinnedReaders() int {
	g := &m.gens
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pins[0] + g.pins[1]
}

// OldestPin returns the publish epoch at which the oldest reader generation
// that still holds a pin became current — a lower bound on the epoch the
// longest-running pinned reader observes — or the current epoch when no
// reader is pinned. The gap Epoch()−OldestPin() bounds how far reclamation
// lags behind publishing.
func (m *Manager) OldestPin() uint64 {
	g := &m.gens
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range [2]uint8{g.cur ^ 1, g.cur} {
		if g.pins[c] != 0 {
			return g.since[c]
		}
	}
	return g.epoch.Load()
}

// LimboPages returns the number of freed pages awaiting reclamation: staged,
// in their grace period, or past it and not yet on the freelist.
func (m *Manager) LimboPages() int {
	g := &m.gens
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.staged) + len(g.pages[0]) + len(g.pages[1]) + len(g.ready) + len(g.waiting)
}

// reclaim moves the ready pages that are crash-safe onto the freelist and
// the others to the waiting list, dropping the cached copies of the freed
// ones before anyone can allocate them. Deferring the cache eviction to this
// point (rather than evicting at FreeDeferred time) keeps hot interior nodes
// cached for the snapshot readers still traversing them.
func (m *Manager) reclaim() {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	g := &m.gens
	g.mu.Lock()
	seq := m.metaSeq.Load()
	n := len(m.freelist)
	for _, p := range g.ready {
		if p.fresh || seq > p.seq {
			m.freelist = append(m.freelist, p.id)
		} else {
			g.waiting = append(g.waiting, p)
		}
	}
	g.ready = g.ready[:0]
	g.mu.Unlock()
	for _, id := range m.freelist[n:] {
		m.cache.remove(id)
	}
}
