package pagefile

import "sync"

// Epoch-based page reclamation.
//
// Shadow paging (FreeDeferred + CommitMeta) protects the committed on-disk
// state from premature page reuse, but snapshot-isolated readers add a
// second constraint: a page may still be referenced by a published
// *in-memory* tree snapshot that some reader is traversing without any
// lock. The Manager therefore tracks a monotonically increasing publish
// epoch. A writer calls AdvanceEpoch after publishing each new tree state;
// a reader brackets its traversal with PinEpoch/UnpinEpoch. A freed page
// enters a limbo list stamped with the last epoch that referenced it, and
// only re-enters the allocator once
//
//   - the publish epoch has moved past that epoch and no reader pin at or
//     below it remains (snapshot safety), and
//   - the page was either allocated after the last commit ("fresh", so the
//     committed state provably never referenced it) or a commit has landed
//     since the free (crash safety, the classic shadow-paging condition).
//
// The protocol is deadlock- and race-free by ordering: a reader pins first
// and loads the published snapshot second, while a writer publishes the new
// snapshot first and advances the epoch second. At the moment a pin
// captures epoch P, the currently published snapshot has epoch >= P, and
// every page referenced by any snapshot with epoch >= P is freed no earlier
// than epoch P and therefore held in limbo until the pin drops.
//
// Page image recycling.
//
// A manager over a backend that reads into its caller's images (ImageReader:
// FileBackend) owns the image of every page a pinned reader misses on
// (ReadPinned): the image comes from a package-level pool, one sync.Pool per
// page size that the GC drains, and the backend copies the slot into it and
// checks the CRC there (a fresh image when the pool is empty). The page's
// cache entry remembers the image its decoded form views. When the entry
// leaves the cache — evicted, removed by a free or a reclaim, its form
// replaced, DropCache or Close — the image is retired into the current
// reader generation, and it returns to the pool once every pin taken before
// it was retired has been released. The lifetime rule that makes this safe:
// a pinned reader uses what it read only while it holds its pin, so once
// those pins are gone nobody can still see the image (an epoch-style grace
// period, as in Fraser's "Practical lock-freedom", 2004). Images awaiting
// their grace never exceed the cache's page budget; one retired beyond it is
// left to the GC.
//
// The escape rule keeps every other reader's images immutable for good: a
// byte read (ReadCounted), a VerifyPage and a miss without a pin get a fresh
// image that is never recycled, a decoded read without a pin (ReadDecoded)
// marks the entry's image escaped — the entry forgets it, so it is never
// retired nor handed out again — and an image the backend keeps (MemBackend)
// is never owned.
//
// The reader generations are two pin counters (imageGens). A pin counts in
// the current one; images retire into the current one's list. Once the
// other generation holds no pin, its images are free, and if the current
// one has retired any it hands over: new pins count in the other counter,
// so the images it retired wait only for the pins it already holds. The
// counters sit beside the publish epoch in every Pin, under a lock of their
// own that is a leaf: retiring runs under a cache shard lock, which Free's
// eviction takes under allocMu.

// Pin is a reader's hold on a Manager, taken by PinEpoch and released by
// UnpinEpoch: on the publish epoch it was taken at, so no page that epoch's
// snapshot references is reused under it, and, on a manager that owns its
// page images, on every image retired while it is held. The zero Pin holds
// nothing.
type Pin struct {
	epoch uint64
	// gen is 1 + the reader generation the pin counts in; 0 when the
	// manager owns no images.
	gen uint8
}

// imageGens is the grace-period state of a manager's owned page images.
type imageGens struct {
	mu      sync.Mutex
	cur     uint8
	pins    [2]int
	retired [2][]*[]byte
	// limit caps the images awaiting their grace at the cache's capacity.
	limit int
	pool  *sync.Pool
}

// imagePools holds the pool of recycled page images of each page size
// (int → *sync.Pool), shared by every Manager of that size.
var imagePools sync.Map

// pin counts a new pin in the current generation and returns the Pin's gen.
// A nil imageGens (no owned images) counts nothing.
func (g *imageGens) pin() uint8 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	c := g.cur
	g.pins[c]++
	g.mu.Unlock()
	return c + 1
}

// unpin releases a pin's count and frees what it was the last to hold back.
func (g *imageGens) unpin(gen uint8) {
	if gen == 0 {
		return
	}
	g.mu.Lock()
	g.pins[gen-1]--
	g.advanceLocked()
	g.mu.Unlock()
}

// retire hands in an owned image that left the cache.
func (g *imageGens) retire(image *[]byte) {
	g.mu.Lock()
	if len(g.retired[0])+len(g.retired[1]) < g.limit {
		g.retired[g.cur] = append(g.retired[g.cur], image)
		g.advanceLocked()
	}
	g.mu.Unlock()
}

// advanceLocked returns the other generation's images to the pool once it
// holds no pin and then, if the current generation has retired images, makes
// the other one current. Caller holds g.mu.
func (g *imageGens) advanceLocked() {
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
		if len(g.retired[g.cur]) == 0 {
			return
		}
		g.cur = other
	}
}

// limboPage is one freed page awaiting reclamation.
type limboPage struct {
	id PageID
	// epoch is the last publish epoch whose tree state may reference the
	// page. Stamped when the free is folded into an epoch advance or a
	// commit; until then the entry sits in the staged list.
	epoch uint64
	// seq is the meta sequence number at free time; the crash-safety
	// condition is metaSeq > seq (a commit landed after the free).
	seq uint64
	// fresh marks a page allocated after the last commit: the committed
	// state never referenced it, so the crash-safety condition is waived.
	fresh bool
}

// PinEpoch registers a reader pin at the current publish epoch. Pages freed
// at or after this epoch are not reused, and page images retired after it
// are not recycled, until the pin is released with UnpinEpoch. Pinning never
// blocks and never fails; the caller must load the published tree snapshot
// only AFTER pinning.
func (m *Manager) PinEpoch() Pin {
	m.epochMu.Lock()
	e := m.curEpoch
	if m.pins == nil {
		m.pins = make(map[uint64]int)
	}
	m.pins[e]++
	m.epochMu.Unlock()
	return Pin{epoch: e, gen: m.gens.pin()}
}

// UnpinEpoch releases a pin taken with PinEpoch, recycles the page images it
// was the last to hold back and reclaims any limbo pages the departing pin
// was the last to protect.
func (m *Manager) UnpinEpoch(p Pin) {
	m.gens.unpin(p.gen)
	e := p.epoch
	m.epochMu.Lock()
	if n := m.pins[e]; n > 1 {
		m.pins[e] = n - 1
		m.epochMu.Unlock()
		return
	}
	delete(m.pins, e)
	freed := m.reclaimLocked()
	m.epochMu.Unlock()
	m.recycle(freed)
}

// AdvanceEpoch folds the pages freed since the previous advance into the
// limbo list (stamped with the epoch that is ending), bumps the publish
// epoch, and reclaims whatever has become safe. The writer must call it
// AFTER publishing the new tree snapshot, so that a concurrent reader that
// pinned the old epoch can still observe the new snapshot safely (see the
// ordering argument at the top of this file). Returns the new epoch.
func (m *Manager) AdvanceEpoch() uint64 {
	m.epochMu.Lock()
	m.stampStagedLocked()
	m.curEpoch++
	e := m.curEpoch
	freed := m.reclaimLocked()
	m.epochMu.Unlock()
	// Pages allocated before this advance are now (potentially) part of a
	// published snapshot and lose the immediate-recycle fast path.
	m.allocMu.Lock()
	m.newPages = nil
	m.allocMu.Unlock()
	m.recycle(freed)
	return e
}

// Epoch returns the current publish epoch.
func (m *Manager) Epoch() uint64 {
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	return m.curEpoch
}

// PinnedReaders returns the number of outstanding epoch pins.
func (m *Manager) PinnedReaders() int {
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	n := 0
	for _, c := range m.pins {
		n += c
	}
	return n
}

// OldestPin returns the smallest pinned reader epoch — the publish epoch
// the longest-running snapshot reader still observes — or the current
// epoch when no reader is pinned. The gap Epoch()−OldestPin() is how far
// page reclamation lags behind publishing.
func (m *Manager) OldestPin() uint64 {
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	if min := m.minPinLocked(); min != ^uint64(0) {
		return min
	}
	return m.curEpoch
}

// LimboPages returns the number of freed pages awaiting reclamation
// (staged and epoch-stamped).
func (m *Manager) LimboPages() int {
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	return len(m.staged) + len(m.limbo)
}

// stampStagedLocked moves staged frees into limbo under the current epoch.
// Caller holds epochMu.
func (m *Manager) stampStagedLocked() {
	for _, p := range m.staged {
		p.epoch = m.curEpoch
		m.limbo = append(m.limbo, p)
	}
	m.staged = m.staged[:0]
}

// minPinLocked returns the smallest pinned epoch, or ^uint64(0) when no
// reader is pinned. Caller holds epochMu.
func (m *Manager) minPinLocked() uint64 {
	min := ^uint64(0)
	for e := range m.pins {
		if e < min {
			min = e
		}
	}
	return min
}

// reclaimLocked removes every limbo entry that is safe to reuse and returns
// the page ids. Caller holds epochMu; the returned pages must then be
// handed to recycle outside epochMu.
//
// An entry stamped with the CURRENT epoch is never safe, pinned readers or
// not: CommitMeta stamps the frees of a mutation that is committed but not
// yet published, the published snapshot still references those pages, and a
// reader can pin the current epoch and load that snapshot at any moment
// until AdvanceEpoch moves on; the next mutation would overwrite the pages
// under it (TestCommitDoesNotReclaimPublishedPages).
func (m *Manager) reclaimLocked() []PageID {
	if len(m.limbo) == 0 {
		return nil
	}
	// No pin at or below horizon−1 exists or can still be taken.
	horizon := min(m.minPinLocked(), m.curEpoch)
	seq := m.metaSeq.Load()
	var freed []PageID
	kept := m.limbo[:0]
	for _, p := range m.limbo {
		if horizon > p.epoch && (p.fresh || seq > p.seq) {
			freed = append(freed, p.id)
		} else {
			kept = append(kept, p)
		}
	}
	m.limbo = kept
	return freed
}

// recycle drops the cached copies of reclaimed pages and returns them to
// the live freelist. Deferring the cache eviction to this point (rather
// than evicting at FreeDeferred time, as immediate Free does) keeps hot
// interior nodes cached for the snapshot readers still traversing them.
func (m *Manager) recycle(ids []PageID) {
	if len(ids) == 0 {
		return
	}
	for _, id := range ids {
		m.cache.remove(id)
	}
	m.allocMu.Lock()
	if !m.closed.Load() {
		m.freelist = append(m.freelist, ids...)
	}
	m.allocMu.Unlock()
}
