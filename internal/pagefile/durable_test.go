package pagefile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// reopen closes nothing: it attaches a fresh Manager to the same path, as a
// crashed-and-restarted process would.
func reopen(t *testing.T, path string) (*FileBackend, *Manager) {
	t.Helper()
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(fb, fb.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	return fb, m
}

// TestCloseFlushesBackend is the regression test for the silent data-loss
// footgun: pages written before Close must be readable by a fresh Manager on
// the same file, i.e. Close performs the final flush itself.
func TestCloseFlushesBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flush.db")
	fb, err := CreateFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(fb, 128)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := m.Write(id, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CommitMeta([]byte("state")); err != nil {
		t.Fatal(err)
	}
	// No explicit Sync here: Close alone must leave everything durable.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	_, m2 := reopen(t, path)
	defer m2.Close()
	if got := m2.Meta(); string(got) != "state" {
		t.Errorf("recovered meta = %q, want %q", got, "state")
	}
	for i, id := range ids {
		page, err := m2.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if page[0] != byte('a'+i) {
			t.Errorf("page %d content %q after reopen", id, page[0])
		}
	}
}

func TestCommitMetaRestoresAllocator(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alloc.db")
	fb, err := CreateFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(fb, 128)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, _ := m.Allocate()
		ids = append(ids, id)
		m.Write(id, []byte{byte(i)})
	}
	m.FreeDeferred(ids[1])
	m.FreeDeferred(ids[3])
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	_, m2 := reopen(t, path)
	defer m2.Close()
	if m2.NumPages() != 5 {
		t.Errorf("restored next = %d, want 5", m2.NumPages())
	}
	// The two freed pages must be handed out again before any fresh page.
	a, _ := m2.Allocate()
	b, _ := m2.Allocate()
	c, _ := m2.Allocate()
	got := map[PageID]bool{a: true, b: true}
	if !got[ids[1]] || !got[ids[3]] {
		t.Errorf("restored freelist not reused: got %d,%d want {%d,%d}", a, b, ids[1], ids[3])
	}
	if c != 5 {
		t.Errorf("fresh allocation after freelist = %d, want 5", c)
	}
}

func TestFreeDeferredNotReusedBeforeCommit(t *testing.T) {
	m := newMemManager(t, 64)
	a, _ := m.Allocate()
	m.Write(a, []byte("x"))
	// The commit makes page a part of the committed state.
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.FreeDeferred(a)
	b, _ := m.Allocate()
	if b == a {
		t.Fatal("deferred-freed committed page reused before commit")
	}
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.AdvanceEpoch() // the writer publishes what it committed
	c, _ := m.Allocate()
	if c != a {
		t.Errorf("after commit and publish the deferred page should be reused: got %d, want %d", c, a)
	}
}

// TestCommitDoesNotReclaimPublishedPages: a commit lands BEFORE the writer
// publishes the committed state, so the pages the mutation freed are still
// part of the published snapshot, and a reader may pin the current epoch and
// load that snapshot at any time until AdvanceEpoch. The commit must not
// hand them to the allocator even when no reader is pinned at that instant
// (it did; the next mutation then overwrote pages under such a reader).
func TestCommitDoesNotReclaimPublishedPages(t *testing.T) {
	m := newMemManager(t, 64)
	a, _ := m.Allocate()
	m.Write(a, []byte("published"))
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.AdvanceEpoch() // page a is part of the published snapshot

	m.FreeDeferred(a) // a mutation supersedes it ...
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err) // ... and commits, with no reader pinned
	}
	pin := m.PinEpoch() // a reader arrives before the publish and loads the old snapshot
	if b, _ := m.Allocate(); b == a {
		t.Fatal("page of the published snapshot reclaimed by the commit")
	}
	m.AdvanceEpoch()
	if b, _ := m.Allocate(); b == a {
		t.Fatal("page reclaimed under a reader pinned at its epoch")
	}
	m.UnpinEpoch(pin)
	if b, _ := m.Allocate(); b != a {
		t.Errorf("after publish and unpin the page should be reused: got %d, want %d", b, a)
	}
}

// TestFreeDeferredRecyclesFreshPages: a page allocated after the last
// commit is provably unreferenced by the committed state, so FreeDeferred
// recycles it immediately — batched mutations reuse one slot per node
// instead of one per intermediate version.
func TestFreeDeferredRecyclesFreshPages(t *testing.T) {
	m := newMemManager(t, 64)
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	x, _ := m.Allocate()
	m.Write(x, []byte("v1"))
	m.FreeDeferred(x)
	y, _ := m.Allocate()
	if y != x {
		t.Errorf("fresh page not recycled: got %d, want %d", y, x)
	}
	// Many rewrite cycles must not grow the page count.
	for i := 0; i < 100; i++ {
		id, _ := m.Allocate()
		m.Write(id, []byte("vn"))
		m.FreeDeferred(id)
	}
	if m.NumPages() > 2 {
		t.Errorf("rewrite churn grew the file to %d pages", m.NumPages())
	}
}

// TestUncommittedWritesInvisibleAfterReopen: pages allocated and written
// after the last commit are rolled back by recovery — the allocator resumes
// from the committed next pointer.
func TestUncommittedWritesInvisibleAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollback.db")
	fb, _ := CreateFile(path, 128)
	m, _ := NewManager(fb, 128)
	a, _ := m.Allocate()
	m.Write(a, []byte("committed"))
	if err := m.CommitMeta([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Post-commit garbage that must vanish.
	bID, _ := m.Allocate()
	m.Write(bID, []byte("uncommitted"))
	m.Close()

	_, m2 := reopen(t, path)
	defer m2.Close()
	if m2.NumPages() != 1 {
		t.Errorf("recovered next = %d, want 1 (uncommitted allocation rolled back)", m2.NumPages())
	}
	if string(m2.Meta()) != "v1" {
		t.Errorf("recovered meta = %q", m2.Meta())
	}
	if _, err := m2.Read(bID); err == nil {
		t.Error("reading the rolled-back page should fail (unallocated)")
	}
}

// TestTornMetaFallsBackToPreviousCommit corrupts the newest meta slot on
// disk (a torn meta write) and verifies recovery lands on the previous
// commit — the double-buffering guarantee.
func TestTornMetaFallsBackToPreviousCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tornmeta.db")
	fb, _ := CreateFile(path, 128)
	m, _ := NewManager(fb, 128)
	id, _ := m.Allocate()
	m.Write(id, []byte("one"))
	if err := m.CommitMeta([]byte("commit-1")); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitMeta([]byte("commit-2")); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Tear the slot holding commit-2 (seq 2 → slot B by metaSlotFor).
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(metaSlotFor(2)) * int64(slotSize(128))
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, off+20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, m2 := reopen(t, path)
	defer m2.Close()
	if got := string(m2.Meta()); got != "commit-1" {
		t.Errorf("recovered meta = %q, want fallback to %q", got, "commit-1")
	}
	if m2.MetaSeq() != 1 {
		t.Errorf("recovered seq = %d, want 1", m2.MetaSeq())
	}
}

// TestPageChecksumDetectsCorruption flips a byte inside a committed data
// page and verifies the read fails with ErrChecksum instead of decoding
// garbage.
func TestPageChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bitrot.db")
	fb, _ := CreateFile(path, 128)
	m, _ := NewManager(fb, 128)
	id, _ := m.Allocate()
	m.Write(id, bytes.Repeat([]byte("q"), 128))
	m.CommitMeta(nil)
	m.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(reservedSlots+int(id)) * int64(slotSize(128))
	if _, err := f.WriteAt([]byte{'X'}, off+17); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, m2 := reopen(t, path)
	defer m2.Close()
	if _, err := m2.Read(id); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupted page read error = %v, want ErrChecksum", err)
	}
}

// TestCreateFileReclaimsUncommittedDebris: a create that crashed before its
// first commit leaves a header (and possibly orphan pages) but no committed
// meta — CreateFile must reclaim such a file instead of wedging the path,
// while still refusing committed page files and foreign data.
func TestCreateFileReclaimsUncommittedDebris(t *testing.T) {
	path := filepath.Join(t.TempDir(), "debris.db")
	fb, err := CreateFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: some page writes, no commit, process dies.
	fb.WritePage(0, make([]byte, 128))
	fb.Close()

	fb2, err := CreateFile(path, 256)
	if err != nil {
		t.Fatalf("CreateFile over uncommitted debris = %v, want success", err)
	}
	if fb2.PageSize() != 256 || fb2.NumPages() != 0 {
		t.Errorf("reclaimed file: pageSize=%d pages=%d, want 256/0", fb2.PageSize(), fb2.NumPages())
	}
	m, err := NewManager(fb2, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CommitMeta([]byte("real")); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Now the file holds a committed state: CreateFile must refuse it.
	if _, err := CreateFile(path, 256); !errors.Is(err, ErrExists) {
		t.Errorf("CreateFile over committed file = %v, want ErrExists", err)
	}

	// A zero-filled file (header lost to delayed allocation in a crash)
	// is also debris and must be reclaimed.
	zpath := filepath.Join(t.TempDir(), "zeros.db")
	if err := os.WriteFile(zpath, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	fb3, err := CreateFile(zpath, 128)
	if err != nil {
		t.Fatalf("CreateFile over zero-filled debris = %v, want success", err)
	}
	fb3.Close()
}

// hookBackend runs a callback on the first Sync, letting tests interleave
// allocator traffic with a CommitMeta in flight (CommitMeta's first barrier
// is a Sync).
type hookBackend struct {
	Backend
	onSync func()
}

func (b *hookBackend) Sync() error {
	if b.onSync != nil {
		hook := b.onSync
		b.onSync = nil
		hook()
	}
	return b.Backend.Sync()
}

// TestCommitMetaConcurrentAllocatorTraffic: Allocate and FreeDeferred calls
// racing a CommitMeta must not be lost or resurrected when the commit
// finishes installing the new freelist.
func TestCommitMetaConcurrentAllocatorTraffic(t *testing.T) {
	hb := &hookBackend{Backend: NewMemBackend(64)}
	m, err := NewManager(hb, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.Allocate()
	b, _ := m.Allocate()
	m.Write(a, []byte("a"))
	m.Write(b, []byte("b"))
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err) // a and b now belong to the committed state
	}
	m.FreeDeferred(a) // snapshotted (pending) by the commit below

	var mid PageID
	hb.onSync = func() {
		// Mid-commit: claim a page and release a committed one (only
		// allocator calls here — page I/O would wait on the commit's ioMu).
		// The commit must not hand `mid` out twice, and must keep `b`
		// pending (it is referenced by the state being replaced).
		mid, _ = m.Allocate()
		m.FreeDeferred(b)
	}
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.AdvanceEpoch() // the writer publishes what it committed

	// After the commit: allocations must yield `a` (promoted) and then
	// fresh pages — never `mid` again, and not `b` (still pending).
	seen := map[PageID]bool{mid: true}
	sawA := false
	for i := 0; i < 4; i++ {
		id, _ := m.Allocate()
		if seen[id] {
			t.Fatalf("page %d handed out twice after racing commit", id)
		}
		if id == b {
			t.Fatalf("page %d freed during the commit was resurrected before the next commit", id)
		}
		sawA = sawA || id == a
		seen[id] = true
	}
	if !sawA {
		t.Errorf("promoted page %d was not reused", a)
	}
	// The next commit promotes b.
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.AdvanceEpoch()
	found := false
	for i := 0; i < 8; i++ {
		if id, _ := m.Allocate(); id == b {
			found = true
			break
		}
	}
	if !found {
		t.Error("page freed during the commit was lost (never promoted)")
	}
}

// TestMetaFreelistOverflowTruncates: a freelist too large for one meta slot
// is truncated in the persisted copy (pages leak) but the commit succeeds.
func TestMetaFreelistOverflowTruncates(t *testing.T) {
	m := newMemManager(t, 64) // capacity for (64+8-16-9)/4 = 11 ids
	var ids []PageID
	for i := 0; i < 40; i++ {
		id, _ := m.Allocate()
		m.Write(id, []byte{1})
		ids = append(ids, id)
	}
	for _, id := range ids {
		m.FreeDeferred(id)
	}
	if err := m.CommitMeta(nil); err != nil {
		t.Fatalf("overflowing freelist commit failed: %v", err)
	}
	// The in-memory manager still knows all 40 free pages.
	for i := 0; i < 40; i++ {
		if id, _ := m.Allocate(); int(id) >= 40 {
			t.Fatalf("allocation %d did not come from the freelist: %d", i, id)
		}
	}
}

// gatedSyncBackend holds every Sync until release is closed, announcing it
// on entered first.
type gatedSyncBackend struct {
	Backend
	entered chan struct{}
	release chan struct{}
}

func (b *gatedSyncBackend) Sync() error {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.Sync()
}

// TestCheckpointDoesNotStallReaders: while a CommitMeta waits in a durability
// barrier, a cache miss, a page verification and a Meta read on other
// goroutines must still return — the barriers run outside the I/O lock.
func TestCheckpointDoesNotStallReaders(t *testing.T) {
	// entered holds one send per Sync the test causes: the commit's two and Close's.
	gb := &gatedSyncBackend{Backend: NewMemBackend(64), entered: make(chan struct{}, 3), release: make(chan struct{})}
	m, err := NewManager(gb, 64, WithCacheBytes(0)) // every read is a miss
	if err != nil {
		t.Fatal(err)
	}
	id, _ := m.Allocate()
	if err := m.Write(id, []byte("page")); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- m.CommitMeta([]byte("meta")) }()
	<-gb.entered // the commit is blocked in its first Sync

	read := make(chan error, 1)
	go func() {
		got, err := m.ReadDecoded(id, nil, Pin{}, func(_ PageID, page []byte) (any, error) { return page, nil })
		if err == nil && !bytes.HasPrefix(got.([]byte), []byte("page")) {
			err = errors.New("wrong page image")
		}
		if err == nil {
			_, err = m.VerifyPage(id)
		}
		if err == nil && m.Meta() != nil {
			err = errors.New("Meta shows an uncommitted record")
		}
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a read of an uncached page waited for the checkpoint's Sync")
	}
	close(gb.release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if got := string(m.Meta()); got != "meta" {
		t.Errorf("Meta after the commit = %q, want \"meta\"", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
