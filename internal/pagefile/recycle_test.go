package pagefile

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// recyclingManager returns a Manager with a cache of cachePages over a fresh
// page file of the given page size holding pages pages, page i filled with
// byte i+1, and no page cached. Every test gives its own page size: the pool
// of recycled images is shared by the managers of one size.
func recyclingManager(t *testing.T, pageSize, pages, cachePages int) *Manager {
	t.Helper()
	fb, err := CreateFile(filepath.Join(t.TempDir(), "pages"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(fb, pageSize, WithCacheBytes(cachePages*pageSize))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if m.reader == nil {
		t.Fatal("a manager over a file backend owns no images")
	}
	for i := 0; i < pages; i++ {
		id, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(id, bytes.Repeat([]byte{byte(id) + 1}, pageSize)); err != nil {
			t.Fatal(err)
		}
	}
	m.DropCache()
	return m
}

// viewDecode decodes a page into a view of its image, as core's leaves are.
func viewDecode(_ PageID, page []byte) (any, error) { return page, nil }

// readView reads page id under pin and checks it reads as written.
func readView(m *Manager, id PageID, pin Pin) ([]byte, error) {
	v, err := m.ReadDecoded(id, nil, pin, viewDecode)
	if err != nil {
		return nil, err
	}
	page := v.([]byte)
	if len(page) != m.PageSize() || bytes.Count(page, []byte{byte(id) + 1}) != len(page) {
		return nil, fmt.Errorf("page %d does not read as written: % x…", id, page[:8])
	}
	return page, nil
}

// TestRecycledImagesWaitForPins holds the lifetime rule of the page images a
// Manager owns (epoch.go). On a file backend with a 4-page cache, one pinned
// reader holds a decoded page — a view of its image — while two pinned
// readers churn 10 000 misses over 32 pages: the held bytes must equal their
// copy until the holder unpins, and every page must read as written. After
// the unpin, the held image must be free and recycled images must serve
// misses, so the test cannot pass by recycling nothing. An unpinned read
// marks its page's image escaped, and that image is never handed out again.
func TestRecycledImagesWaitForPins(t *testing.T) {
	const pageSize, pages, churners, perChurner = 328, 32, 2, 6000
	m := recyclingManager(t, pageSize, pages, 4)

	holder := m.PinEpoch()
	held, err := readView(m, 0, holder)
	if err != nil {
		t.Fatal(err)
	}
	heldCopy := bytes.Clone(held)
	var wg sync.WaitGroup
	errs := make(chan error, churners)
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perChurner; i++ {
				pin := m.PinEpoch()
				_, err := readView(m, PageID(1+rng.Intn(pages-1)), pin)
				m.UnpinEpoch(pin)
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for checking := true; checking; {
		select {
		case <-done:
			checking = false
		default:
		}
		if !bytes.Equal(held, heldCopy) {
			t.Fatal("the held page's image was recycled under its reader's pin")
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if misses := m.Stats().PhysicalReads; misses < 10000 {
		t.Fatalf("only %d misses churned", misses)
	}
	// waiting reports whether the held image awaits its grace, and how many
	// images do.
	waiting := func() (bool, int) {
		m.gens.mu.Lock()
		defer m.gens.mu.Unlock()
		found := false
		for _, images := range m.gens.retired {
			for _, image := range images {
				found = found || &(*image)[0] == &held[0]
			}
		}
		return found, len(m.gens.retired[0]) + len(m.gens.retired[1])
	}
	if ok, n := waiting(); !ok || n > m.capacity {
		t.Fatalf("held image awaiting its grace %v; %d images await theirs, the cache holds %d pages", ok, n, m.capacity)
	}
	m.UnpinEpoch(holder)
	if ok, _ := waiting(); ok {
		t.Fatal("the held image still awaits its grace after its pin was released")
	}

	// Misses now take recycled images. The race detector's sync.Pool drops
	// a quarter of what it is given, hence the loose bound.
	const after = 2000
	images := map[*byte]bool{}
	for i := 0; i < after; i++ {
		pin := m.PinEpoch()
		page, err := readView(m, PageID(1+i%(pages-1)), pin)
		m.UnpinEpoch(pin)
		if err != nil {
			t.Fatal(err)
		}
		images[&page[0]] = true
	}
	if len(images) > after/2 {
		t.Errorf("%d misses read into %d distinct images: recycled images do not serve misses", after, len(images))
	}

	// An unpinned read: the image escapes for good.
	m.DropCache()
	pin := m.PinEpoch()
	owned, err := readView(m, 5, pin)
	m.UnpinEpoch(pin)
	if err != nil {
		t.Fatal(err)
	}
	escaped, err := readView(m, 5, Pin{})
	if err != nil {
		t.Fatal(err)
	}
	if &escaped[0] != &owned[0] {
		t.Fatal("the unpinned read missed the cached page")
	}
	for i := 0; i < after; i++ {
		id := PageID(6 + i%(pages-6))
		pin := m.PinEpoch()
		page, err := readView(m, id, pin)
		m.UnpinEpoch(pin)
		if err != nil {
			t.Fatal(err)
		}
		if &page[0] == &escaped[0] {
			t.Fatalf("miss %d: page %d read into the escaped image", i, id)
		}
	}
	if bytes.Count(escaped, []byte{6}) != pageSize {
		t.Fatal("the escaped image changed")
	}
}

// TestMissAllocations: a decoded miss on a full cache allocates nothing of
// the manager's own — the entry it evicts becomes the new one and, on a file
// backend, the image is a recycled one — beyond what the DecodeFunc makes.
func TestMissAllocations(t *testing.T) {
	const pageSize, pages = 344, 16
	decoded := &decodedPage{}
	decode := func(PageID, []byte) (any, error) { return decoded, nil }
	for name, m := range map[string]*Manager{
		"mem":  newMemManager(t, pageSize, WithCacheBytes(4*pageSize)),
		"file": recyclingManager(t, pageSize, pages, 4),
	} {
		for id := PageID(m.NumPages()); id < pages; id++ {
			if _, err := m.Allocate(); err != nil {
				t.Fatal(err)
			}
			if err := m.Write(id, []byte{byte(id)}); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		miss := func() {
			pin := m.PinEpoch()
			if _, err := m.ReadDecoded(PageID(next%pages), nil, pin, decode); err != nil {
				t.Fatal(err)
			}
			m.UnpinEpoch(pin)
			next++
		}
		for i := 0; i < 2*pages; i++ {
			miss() // fill the cache and the pool
		}
		before := m.Stats().PhysicalReads
		if allocs := testing.AllocsPerRun(200, miss); allocs != 0 {
			t.Errorf("%s: %.0f allocations per decoded miss, want 0", name, allocs)
		}
		if reads := m.Stats().PhysicalReads - before; reads != 201 {
			t.Errorf("%s: %d of 201 reads missed", name, reads)
		}
	}
}
