package pagefile

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheShardsFor pins the shard-count policy: a cache is sharded only
// when every shard keeps a healthy LRU, so tiny caches behave exactly like a
// global LRU (which the eviction tests rely on).
func TestCacheShardsFor(t *testing.T) {
	cases := []struct {
		capacity, want int
	}{
		{0, 0},     // disabled cache: no shards
		{4, 1},     // tiny cache: exact global LRU
		{100, 1},   // below 2*minPagesPerShard: still one shard
		{128, 2},   // 2 shards of 64
		{512, 8},   // 8 shards of 64
		{6400, 16}, // the default 50 MB / 8 KB cache
		{1 << 20, 16},
	}
	for _, c := range cases {
		if got := cacheShardsFor(c.capacity); got != c.want {
			t.Errorf("cacheShardsFor(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
}

// TestShardedEvictionBounded fills a sharded cache far past its capacity and
// checks the byte budget is respected (eviction is per-shard LRU, so the
// resident count is bounded by the configured capacity) and that hits and
// misses are counted exactly across shards.
func TestShardedEvictionBounded(t *testing.T) {
	const capacity = 512
	m := newMemManager(t, 64, WithCacheBytes(capacity*64))
	if got := len(m.cache.shards); got != 8 {
		t.Fatalf("%d-page cache has %d shards, want 8", capacity, got)
	}
	for i := 0; i < 4*capacity; i++ {
		id, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.CachedPages(); got > capacity {
		t.Errorf("CachedPages = %d exceeds capacity %d", got, capacity)
	}
	// Recently written pages must still be resident.
	m.ResetStats()
	if _, err := m.Read(PageID(4*capacity - 1)); err != nil {
		t.Fatal(err)
	}
	if m.Stats().CacheHits != 1 {
		t.Error("most recently written page should be cached")
	}

	m.DropCache()
	m.ResetStats()
	for pass := 0; pass < 2; pass++ {
		for id := PageID(0); id < 64; id++ {
			if _, err := m.Read(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := m.Stats(); s.LogicalReads != 128 || s.PhysicalReads != 64 || s.CacheHits != 64 {
		t.Errorf("sharded hit accounting: %+v", s)
	}
	if m.CachedPages() != 64 {
		t.Errorf("CachedPages = %d, want 64", m.CachedPages())
	}
}

// decodedPage is the decoded form the tests below cache: the page's payload
// as a string. decodes counts how often the manager asked for a decode.
type decodedPage struct{ text string }

func countingDecode(decodes *int) DecodeFunc {
	return func(_ PageID, page []byte) (any, error) {
		*decodes++
		return &decodedPage{string(bytes.TrimRight(page, "\x00"))}, nil
	}
}

func mustDecoded(t *testing.T, m *Manager, id PageID, decode DecodeFunc) *decodedPage {
	t.Helper()
	v, err := m.ReadDecoded(id, nil, Pin{}, decode)
	if err != nil {
		t.Fatal(err)
	}
	return v.(*decodedPage)
}

// TestDecodedFormLifecycle: an entry's decoded form is replaced or dropped
// by exactly the events that replace or drop its image — Write, a free,
// recycling after epoch reclamation, DropCache — so a stale decoded form is
// never served; a byte read of a decoded entry hits its image, and the
// decoded form survives it.
func TestDecodedFormLifecycle(t *testing.T) {
	m := newMemManager(t, 64)
	decodes := 0
	decode := countingDecode(&decodes)
	id, _ := m.Allocate()
	if err := m.Write(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	first := mustDecoded(t, m, id, decode) // cached bytes, decoded in place
	if first.text != "v1" || decodes != 1 {
		t.Fatalf("first decoded read = %q after %d decodes", first.text, decodes)
	}
	if again := mustDecoded(t, m, id, decode); again != first || decodes != 1 {
		t.Fatalf("second decoded read re-decoded (%d decodes) or returned another value", decodes)
	}
	if s := m.Stats(); s.PhysicalReads != 0 || s.CacheHits != 2 || m.CachedPages() != 1 {
		t.Fatalf("decoding cached bytes must cost no I/O and no second entry: %+v, %d cached", s, m.CachedPages())
	}

	// Byte reads of the decoded entry hit its image and keep its decoded form.
	m.ResetStats()
	for i := 0; i < 2; i++ {
		data, err := m.Read(id)
		if err != nil || !bytes.HasPrefix(data, []byte("v1")) {
			t.Fatalf("byte read %d = %q, %v", i, data, err)
		}
	}
	if s := m.Stats(); s.PhysicalReads != 0 || s.CacheHits != 2 {
		t.Fatalf("byte reads of a decoded entry: %+v, want 2 hits, 0 physical", s)
	}
	if again := mustDecoded(t, m, id, decode); again != first || decodes != 1 {
		t.Fatalf("byte reads dropped the decoded form: %d decodes", decodes)
	}

	// Write replaces the decoded form; WriteDecoded installs one.
	if err := m.Write(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := mustDecoded(t, m, id, decode); got.text != "v2" {
		t.Fatalf("stale decoded form %q served after Write", got.text)
	}
	decodes = 0
	if err := m.WriteDecoded(id, []byte("v3"), decode); err != nil {
		t.Fatal(err)
	}
	if got := mustDecoded(t, m, id, decode); got.text != "v3" || decodes != 1 {
		t.Fatalf("WriteDecoded form not served as is: %+v, %d decodes", got, decodes)
	}
	if data, _ := m.Read(id); !bytes.HasPrefix(data, []byte("v3")) {
		t.Fatalf("WriteDecoded did not reach the backend: %q", data)
	}

	// DropCache and the free of a page nothing published drop it.
	mustDecoded(t, m, id, decode)
	m.DropCache()
	if m.CachedPages() != 0 {
		t.Fatal("DropCache left a decoded entry")
	}
	mustDecoded(t, m, id, decode)
	if err := m.FreeDeferred(id); err != nil {
		t.Fatal(err)
	}
	if m.CachedPages() != 0 {
		t.Fatal("FreeDeferred of a fresh, new page left a decoded entry")
	}

	// Epoch reclamation: the entry outlives FreeDeferred (readers may still
	// traverse the page) and is dropped when the page is recycled.
	id, _ = m.Allocate()
	m.WriteDecoded(id, []byte("old"), decode)
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.AdvanceEpoch() // published
	pin := m.PinEpoch()
	m.FreeDeferred(id)
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.AdvanceEpoch()
	if got := mustDecoded(t, m, id, decode); got.text != "old" {
		t.Fatalf("pinned reader lost the superseded page: %q", got.text)
	}
	m.UnpinEpoch(pin)
	if m.CachedPages() != 0 {
		t.Fatal("recycling left the decoded entry of the reclaimed page")
	}
	if again, _ := m.Allocate(); again != id {
		t.Fatalf("page %d not recycled (got %d)", id, again)
	}
	m.Write(id, []byte("new"))
	if got := mustDecoded(t, m, id, decode); got.text != "new" {
		t.Fatalf("recycled page served %q", got.text)
	}
}

// TestDecodeRacingWriteKeepsTheWrite: a reader decodes outside every lock,
// so a Write or WriteDecoded can land while it decodes the page's old image.
// Its decoded form belongs to that image and must not take the written
// page's entry: every later decoded read serves the write.
func TestDecodeRacingWriteKeepsTheWrite(t *testing.T) {
	for _, decodedWrite := range []bool{false, true} {
		m := newMemManager(t, 64)
		id, _ := m.Allocate()
		if err := m.Write(id, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		m.DropCache()
		decoding, release := make(chan struct{}), make(chan struct{})
		var first atomic.Bool
		decode := func(id PageID, page []byte) (any, error) {
			if first.CompareAndSwap(false, true) {
				close(decoding)
				<-release
			}
			return &decodedPage{string(bytes.TrimRight(page, "\x00"))}, nil
		}
		read := make(chan error, 1)
		go func() {
			_, err := m.ReadDecoded(id, nil, Pin{}, decode)
			read <- err
		}()
		<-decoding // the reader has read "v1" and decodes it
		var err error
		if decodedWrite {
			err = m.WriteDecoded(id, []byte("v2"), decode)
		} else {
			err = m.Write(id, []byte("v2"))
		}
		if err != nil {
			t.Fatal(err)
		}
		close(release)
		if err := <-read; err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if got := mustDecoded(t, m, id, decode); got.text != "v2" {
				t.Fatalf("WriteDecoded %v: decoded read %d serves %q after the write of v2", decodedWrite, i, got.text)
			}
		}
	}
}

// TestDecodedEntriesObeyCapacity: a decoded entry is one page of the LRU,
// and a cache-disabled manager decodes on every read with the same answers.
func TestDecodedEntriesObeyCapacity(t *testing.T) {
	const capacity, pages = 4, 12
	for _, cacheBytes := range []int{capacity * 64, 0} {
		m := newMemManager(t, 64, WithCacheBytes(cacheBytes))
		decodes := 0
		decode := countingDecode(&decodes)
		for i := 0; i < pages; i++ {
			id, _ := m.Allocate()
			if err := m.WriteDecoded(id, []byte{byte('a' + i)}, decode); err != nil {
				t.Fatal(err)
			}
			if got := m.CachedPages(); got > cacheBytes/64 {
				t.Fatalf("cache of %d bytes holds %d decoded pages", cacheBytes, got)
			}
		}
		decodes = 0
		for round := 0; round < 2; round++ {
			for i := 0; i < pages; i++ {
				if got := mustDecoded(t, m, PageID(i), decode); got.text != string(rune('a'+i)) {
					t.Fatalf("cache %d: page %d decoded as %q", cacheBytes, i, got.text)
				}
				if got := m.CachedPages(); got > cacheBytes/64 {
					t.Fatalf("cache of %d bytes holds %d decoded pages", cacheBytes, got)
				}
			}
		}
		// A cyclic scan larger than the LRU (or no cache) misses every time.
		if s := m.Stats(); decodes != 2*pages || s.PhysicalReads != 2*pages {
			t.Errorf("cache %d: %d decodes, %d physical reads, want %d each", cacheBytes, decodes, s.PhysicalReads, 2*pages)
		}
	}
}

// TestReadCountedHotNoAlloc proves the cache-hit path of ReadCounted is
// allocation-free.
func TestReadCountedHotNoAlloc(t *testing.T) {
	m := newMemManager(t, 64)
	id, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(id, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	var c Counter
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.ReadCounted(id, &c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("hot ReadCounted allocated %.1f objects per read, want 0", allocs)
	}
}

// TestShardedCacheConcurrentHammer drives the Manager from many goroutines:
// hot and decoded reads, writes, allocation, frees, cold accessors and
// cache drops, and every method that nests locks — CommitMeta (allocMu →
// the generations' lock, ioMu, and reclaim's allocMu → cache shard →
// generations), FreeDeferred (allocMu → cache shard), PinEpoch/UnpinEpoch/
// AdvanceEpoch (the generations' lock, then reclaim's), ReadDecoded/WriteDecoded,
// VerifyPage and DropCache (ioMu → cache shards). Two paths taking a pair of
// locks in opposite orders deadlock here sooner or later, and the test then
// fails with every goroutine's stack after a deadline instead of hanging;
// under -race it also checks the lock split for data races and that the
// accounting invariants survive concurrency. It checks only the paths it
// runs: a new nesting is covered once a case here calls it.
func TestShardedCacheConcurrentHammer(t *testing.T) {
	m := newMemManager(t, 64, WithCacheBytes(256*64))
	if got := len(m.cache.shards); got != 4 {
		t.Fatalf("256-page cache has %d shards, want 4", got)
	}
	const seedPages = 64
	ids := make([]PageID, seedPages)
	for i := range ids {
		id, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := m.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.AdvanceEpoch()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			decode := func(_ PageID, page []byte) (any, error) { return &decodedPage{string(page[:1])}, nil }
			var c Counter
			for i := 0; i < 10000; i++ {
				id := ids[rng.Intn(len(ids))]
				var err error
				switch rng.Intn(14) {
				case 0:
					err = m.Write(id, []byte{byte(i)})
				case 1:
					pin := m.PinEpoch()
					_, err = m.ReadDecoded(id, &c, pin, decode)
					m.UnpinEpoch(pin)
				case 2:
					if m.NumPages() < seedPages {
						err = fmt.Errorf("NumPages shrank below seed")
					}
					m.CachedPages()
					m.Stats()
					m.PinnedReaders()
					m.OldestPin()
					m.LimboPages()
					m.Meta()
				case 3, 4:
					// Allocate a private page, write it, free it again.
					var p PageID
					if p, err = m.Allocate(); err == nil {
						err = m.Write(p, []byte{1})
					}
					if err == nil {
						err = m.FreeDeferred(p)
					}
				case 5:
					if rng.Intn(50) == 0 {
						m.DropCache()
					}
				case 6:
					err = m.CommitMeta([]byte{byte(i)})
				case 7:
					m.AdvanceEpoch()
				case 8:
					err = m.WriteDecoded(id, []byte{byte(i)}, decode)
				case 9:
					_, err = m.VerifyPage(id)
				default:
					var data []byte
					if data, err = m.ReadCounted(id, &c); err == nil && len(data) != 64 {
						err = fmt.Errorf("short page: %d bytes", len(data))
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		stacks := make([]byte, 1<<20)
		t.Fatalf("hammer still running after a minute — a lock-order deadlock:\n%s", stacks[:runtime.Stack(stacks, true)])
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if n := m.PinnedReaders(); n != 0 {
		t.Errorf("%d epoch pins outstanding after every reader unpinned", n)
	}
	s := m.Stats()
	if s.LogicalReads != s.CacheHits+s.PhysicalReads {
		t.Errorf("hit accounting drifted: logical=%d hits=%d physical=%d", s.LogicalReads, s.CacheHits, s.PhysicalReads)
	}
	// Cases 0 and 8 write the pages case 1 decodes: whatever form the cache
	// serves must decode what the backend holds.
	decode := func(_ PageID, page []byte) (any, error) { return &decodedPage{string(page[:1])}, nil }
	for _, id := range ids {
		v, err := m.ReadDecoded(id, nil, Pin{}, decode)
		if err != nil {
			t.Fatal(err)
		}
		page, err := m.VerifyPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := v.(*decodedPage).text, string(page[:1]); got != want {
			t.Errorf("page %d: the cache serves % x, the backend holds % x", id, got, want)
		}
	}
}

// failingReads fails every ReadPage while fail is set.
type failingReads struct {
	Backend
	fail bool
}

var errReadFault = errors.New("injected read fault")

func (b *failingReads) ReadPage(id PageID) ([]byte, error) {
	if b.fail {
		return nil, errReadFault
	}
	return b.Backend.ReadPage(id)
}

// TestReadDecodedKeepsNoBufferOnError: a first touch whose backend read or
// whose decode fails leaves nothing behind — no cache entry, no half-made
// form — so the next read after the fault is a clean miss that reads the
// page again and decodes what the backend holds; a write whose decode fails
// reaches neither the backend nor the cache.
func TestReadDecodedKeepsNoBufferOnError(t *testing.T) {
	be := &failingReads{Backend: NewMemBackend(64)}
	m, err := NewManager(be, 64)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := m.Allocate()
	if err := m.Write(id, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	m.DropCache()
	errDecode := errors.New("injected decode fault")
	failingDecode := func(PageID, []byte) (any, error) { return nil, errDecode }
	const faults = 20
	be.fail = true
	for i := 0; i < faults; i++ {
		if _, err := m.ReadDecoded(id, nil, Pin{}, failingDecode); !errors.Is(err, errReadFault) {
			t.Fatalf("read %d: error %v, want the read fault", i, err)
		}
	}
	be.fail = false
	for i := 0; i < faults; i++ {
		if _, err := m.ReadDecoded(id, nil, Pin{}, failingDecode); !errors.Is(err, errDecode) {
			t.Fatalf("read %d: error %v, want the decode fault", i, err)
		}
	}
	if got := m.CachedPages(); got != 0 {
		t.Errorf("%d pages cached after %d failed first touches", got, 2*faults)
	}
	if err := m.WriteDecoded(id, []byte("changed"), failingDecode); !errors.Is(err, errDecode) {
		t.Fatalf("write with a failing decode: error %v, want the decode fault", err)
	}
	if s := m.Stats(); s.Writes != 1 || s.PhysicalReads != faults || m.CachedPages() != 0 {
		t.Errorf("after the faults: %+v and %d cached pages, want 1 write, %d physical reads, nothing cached", s, m.CachedPages(), faults)
	}
	decodes := 0
	if got := mustDecoded(t, m, id, countingDecode(&decodes)).text; got != "payload" || decodes != 1 {
		t.Errorf("after the faults the page decodes to %q in %d decodes", got, decodes)
	}
}
