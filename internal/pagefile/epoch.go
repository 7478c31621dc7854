package pagefile

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

// PinEpoch registers a reader pin at the current publish epoch and returns
// that epoch. Pages freed at or after this epoch are not reused until the
// pin is released with UnpinEpoch. Pinning never blocks and never fails;
// the caller must load the published tree snapshot only AFTER pinning.
func (m *Manager) PinEpoch() uint64 {
	m.epochMu.Lock()
	e := m.curEpoch
	if m.pins == nil {
		m.pins = make(map[uint64]int)
	}
	m.pins[e]++
	m.epochMu.Unlock()
	return e
}

// UnpinEpoch releases a pin taken with PinEpoch and reclaims any limbo
// pages the departing pin was the last to protect.
func (m *Manager) UnpinEpoch(e uint64) {
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
