package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func newMemManager(t *testing.T, pageSize int, opts ...Option) *Manager {
	t.Helper()
	m, err := NewManager(NewMemBackend(pageSize), pageSize, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllocateWriteRead(t *testing.T) {
	m := newMemManager(t, 128)
	id, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Errorf("first page id = %d", id)
	}
	payload := []byte("hello pages")
	if err := m.Write(id, payload); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 128 {
		t.Errorf("page length %d", len(got))
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Errorf("content mismatch: %q", got[:len(payload)])
	}
	// Remainder must be zero padded.
	for _, b := range got[len(payload):] {
		if b != 0 {
			t.Error("page not zero padded")
			break
		}
	}
}

func TestReadUnallocatedFails(t *testing.T) {
	m := newMemManager(t, 64)
	if _, err := m.Read(0); err == nil {
		t.Error("reading unallocated page should fail")
	}
	if err := m.Write(5, []byte("x")); err == nil {
		t.Error("writing unallocated page should fail")
	}
}

func TestWriteOverflowFails(t *testing.T) {
	m := newMemManager(t, 16)
	id, _ := m.Allocate()
	if err := m.Write(id, make([]byte, 17)); err == nil {
		t.Error("oversized write should fail")
	}
}

func TestFreelistReuse(t *testing.T) {
	m := newMemManager(t, 64)
	a, _ := m.Allocate()
	b, _ := m.Allocate()
	m.FreeDeferred(a)
	c, _ := m.Allocate()
	if c != a {
		t.Errorf("freed page not reused: got %d, want %d", c, a)
	}
	d, _ := m.Allocate()
	if d == b || d == c {
		t.Errorf("fresh allocation collided: %d", d)
	}
}

// TestDecodeManagerMetaCorrupt feeds decodeManagerMeta the corruption matrix
// every field can suffer: truncation, wrong version, and freelist counts that
// overrun the payload — including counts chosen so that the naive 9+4*n
// length check would overflow int on 32-bit platforms (4*0x40000000 wraps to
// 0) and silently pass.
func TestDecodeManagerMetaCorrupt(t *testing.T) {
	valid := encodeManagerMeta(7, []PageID{3, 5}, []byte("user"))
	countAt := func(n uint32) []byte {
		buf := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(buf[5:], n)
		return buf
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"truncated", valid[:8]},
		{"bad version", append([]byte{99}, valid[1:]...)},
		{"count overruns payload", countAt(4)},
		{"count max uint32", countAt(0xFFFFFFFF)},
		{"count overflows 32-bit int", countAt(0x7FFFFFFF)},  // 9+4n wraps negative
		{"count wraps to small length", countAt(0x40000000)}, // 4n wraps to 0, 9+4n = 9
	}
	for _, c := range cases {
		if _, _, _, err := decodeManagerMeta(c.buf); err == nil {
			t.Errorf("%s: decode accepted corrupt meta", c.name)
		}
	}

	next, freelist, user, err := decodeManagerMeta(valid)
	if err != nil {
		t.Fatalf("valid meta rejected: %v", err)
	}
	if next != 7 || len(freelist) != 2 || freelist[0] != 3 || freelist[1] != 5 || string(user) != "user" {
		t.Errorf("roundtrip mismatch: next=%d freelist=%v user=%q", next, freelist, user)
	}
}

func TestStatsCounting(t *testing.T) {
	m := newMemManager(t, 64)
	var ids []PageID
	for i := 0; i < 10; i++ {
		id, _ := m.Allocate()
		ids = append(ids, id)
		if err := m.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m.ResetStats()
	m.DropCache()

	// Sequential scan: every page physical, one seek at the start.
	for _, id := range ids {
		if _, err := m.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.LogicalReads != 10 || s.PhysicalReads != 10 || s.CacheHits != 0 {
		t.Errorf("cold sequential: %+v", s)
	}
	if s.Seeks != 1 {
		t.Errorf("sequential scan should cost exactly 1 seek, got %d", s.Seeks)
	}

	// Re-read: everything cached now.
	m.ResetStats()
	for _, id := range ids {
		m.Read(id)
	}
	s = m.Stats()
	if s.CacheHits != 10 || s.PhysicalReads != 0 {
		t.Errorf("warm reads: %+v", s)
	}

	// Random access pattern after cache drop: seeks on discontinuities.
	m.DropCache()
	m.ResetStats()
	m.Read(ids[7])
	m.Read(ids[2])
	m.Read(ids[3]) // contiguous with previous: no seek
	s = m.Stats()
	if s.Seeks != 2 {
		t.Errorf("random reads: seeks = %d, want 2 (%+v)", s.Seeks, s)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{LogicalReads: 10, CacheHits: 4, PhysicalReads: 6, Writes: 2, Seeks: 3}
	b := Stats{LogicalReads: 1, CacheHits: 1, PhysicalReads: 1, Writes: 1, Seeks: 1}
	sum := a.Add(b)
	if sum.LogicalReads != 11 || sum.Seeks != 4 {
		t.Errorf("Add = %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Errorf("Sub = %+v, want %+v", diff, a)
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{SeekTime: 10 * time.Millisecond, TransferTime: time.Millisecond}
	s := Stats{PhysicalReads: 5, Writes: 2, Seeks: 3}
	want := 3*10*time.Millisecond + 7*time.Millisecond
	if got := cm.IOTime(s); got != want {
		t.Errorf("IOTime = %v, want %v", got, want)
	}
}

func TestCacheEviction(t *testing.T) {
	// Cache of 4 pages; touching 8 pages must evict the least recently used.
	m := newMemManager(t, 64, WithCacheBytes(4*64))
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, _ := m.Allocate()
		ids = append(ids, id)
		m.Write(id, []byte{byte(i)})
	}
	m.DropCache()
	m.ResetStats()
	for _, id := range ids {
		m.Read(id)
	}
	if m.CachedPages() != 4 {
		t.Errorf("cached pages = %d, want 4", m.CachedPages())
	}
	// Pages 4..7 are cached; 0..3 evicted.
	m.ResetStats()
	m.Read(ids[7])
	if m.Stats().CacheHits != 1 {
		t.Error("recently used page should be cached")
	}
	m.ResetStats()
	m.Read(ids[0])
	if m.Stats().CacheHits != 0 {
		t.Error("evicted page should not be cached")
	}
}

func TestCacheDisabled(t *testing.T) {
	m := newMemManager(t, 64, WithCacheBytes(0))
	id, _ := m.Allocate()
	m.Write(id, []byte("x"))
	m.ResetStats()
	m.Read(id)
	m.Read(id)
	s := m.Stats()
	if s.CacheHits != 0 || s.PhysicalReads != 2 {
		t.Errorf("uncached: %+v", s)
	}
}

func TestLRURecencyOrder(t *testing.T) {
	m := newMemManager(t, 64, WithCacheBytes(2*64))
	a, _ := m.Allocate()
	b, _ := m.Allocate()
	c, _ := m.Allocate()
	for i, id := range []PageID{a, b, c} {
		m.Write(id, []byte{byte(i)})
	}
	m.DropCache()
	m.Read(a)
	m.Read(b)
	m.Read(a) // refresh a; b is now LRU
	m.Read(c) // evicts b
	m.ResetStats()
	m.Read(a)
	if m.Stats().CacheHits != 1 {
		t.Error("page a should have survived (recency refreshed)")
	}
	m.ResetStats()
	m.Read(b)
	if m.Stats().CacheHits != 0 {
		t.Error("page b should have been evicted")
	}
}

func TestClosedManager(t *testing.T) {
	m := newMemManager(t, 64)
	id, _ := m.Allocate()
	m.Write(id, []byte("x"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(id); err == nil {
		t.Error("read after close should fail")
	}
	if err := m.Write(id, []byte("y")); err == nil {
		t.Error("write after close should fail")
	}
	if _, err := m.Allocate(); err == nil {
		t.Error("allocate after close should fail")
	}
	if err := m.FreeDeferred(id); !errors.Is(err, ErrClosed) {
		t.Errorf("FreeDeferred after close = %v, want ErrClosed", err)
	}
	if _, err := m.Allocate(); err == nil {
		t.Error("a closed-manager FreeDeferred must not repopulate the freelist")
	}
	if err := m.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestInvalidPageSize(t *testing.T) {
	if _, err := NewManager(NewMemBackend(0), 0); err == nil {
		t.Error("page size 0 should be rejected")
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(fb, 256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	content := map[PageID][]byte{}
	for i := 0; i < 20; i++ {
		id, _ := m.Allocate()
		data := make([]byte, 256)
		rng.Read(data)
		content[id] = data
		if err := m.Write(id, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify persistence; the page size comes from the header.
	fb2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fb2.PageSize() != 256 {
		t.Errorf("reopened page size = %d, want 256", fb2.PageSize())
	}
	if fb2.NumPages() != 20 {
		t.Errorf("reopened file has %d pages, want 20", fb2.NumPages())
	}
	m2, err := NewManager(fb2, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for id, want := range content {
		got, err := m2.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("page %d content mismatch after reopen", id)
		}
	}
}

func TestFileBackendFormatValidation(t *testing.T) {
	dir := t.TempDir()

	// Opening a file that is not a page file must fail with ErrBadFormat.
	garbage := filepath.Join(dir, "garbage.db")
	if err := os.WriteFile(garbage, []byte("this is not a page file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(garbage); !errors.Is(err, ErrBadFormat) {
		t.Errorf("garbage open error = %v, want ErrBadFormat", err)
	}

	// Creating over a non-empty file must be rejected with ErrExists.
	if _, err := CreateFile(garbage, 128); !errors.Is(err, ErrExists) {
		t.Errorf("create over data error = %v, want ErrExists", err)
	}

	// Opening a missing file must fail (Open never creates).
	if _, err := OpenFile(filepath.Join(dir, "missing.db")); err == nil {
		t.Error("opening a missing file should fail")
	}
}

func TestMemBackendZeroFillUnwritten(t *testing.T) {
	m := newMemManager(t, 32)
	id, _ := m.Allocate()
	// Never written: reads as zeroes (sparse-file semantics).
	got, err := m.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten page should read as zeroes")
		}
	}
}

func TestManagerManyPagesStress(t *testing.T) {
	m := newMemManager(t, 512, WithCacheBytes(64*512))
	rng := rand.New(rand.NewSource(77))
	const n = 1000
	pages := make(map[PageID]byte, n)
	for i := 0; i < n; i++ {
		id, _ := m.Allocate()
		v := byte(rng.Intn(256))
		pages[id] = v
		if err := m.Write(id, []byte{v}); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 5000; trial++ {
		id := PageID(rng.Intn(n))
		got, err := m.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != pages[id] {
			t.Fatalf("page %d corrupted: got %d want %d", id, got[0], pages[id])
		}
	}
	s := m.Stats()
	if s.LogicalReads != 5000 {
		t.Errorf("logical reads = %d", s.LogicalReads)
	}
	if s.CacheHits == 0 || s.CacheHits == s.LogicalReads {
		t.Errorf("expected a mix of hits and misses with a small cache: %+v", s)
	}
}
