package pagefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestZeroPinHoldsNothing: releasing the zero Pin is a no-op. It must not
// release a live reader's pin, so the page that reader's snapshot references
// stays out of the allocator until the reader itself unpins.
func TestZeroPinHoldsNothing(t *testing.T) {
	m := newMemManager(t, 64)
	a, _ := m.Allocate()
	m.Write(a, []byte("held"))
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	p := m.PinEpoch()
	m.FreeDeferred(a)
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.UnpinEpoch(Pin{})
	if n := m.PinnedReaders(); n != 1 {
		t.Fatalf("%d readers pinned after releasing the zero Pin, want 1", n)
	}
	m.AdvanceEpoch()
	if b, _ := m.Allocate(); b == a {
		t.Fatal("page reused under a live pin after the zero Pin was released")
	}
	m.UnpinEpoch(p)
}

// reclaimModel runs one seeded program against a Manager and a model of what
// its clients may see. A writer allocates, writes, frees (FreeDeferred),
// commits and publishes (AdvanceEpoch, after the model's snapshot moved);
// readers pin, take the published snapshot and read its pages into views they
// keep until they unpin. The model holds the page versions of the writer's
// state, of the published snapshot, of the committed state and of each held
// pin's snapshot.
type reclaimModel struct {
	m        *Manager
	reopen   func() (*Manager, error)
	rng      *rand.Rand
	ops      []string
	version  uint64
	live     map[PageID]uint64
	liveIDs  []PageID
	private  map[PageID]bool // allocated since the last commit and publish
	publish  map[PageID]uint64
	commit   map[PageID]uint64
	pins     []*modelPin
	maxLimbo int
}

type modelPin struct {
	pin   Pin
	snap  map[PageID]uint64
	views [][2][]byte // a view and its bytes when read
}

// modelPage is the image version v of a page is written with.
func modelPage(v uint64, size int) []byte {
	page := make([]byte, size)
	for i := 0; i+8 <= size; i += 8 {
		binary.LittleEndian.PutUint64(page[i:], v)
	}
	return page
}

// step runs one operation and checks the model's invariants after it.
func (r *reclaimModel) step() error {
	m := r.m
	switch op := r.rng.Intn(17); {
	case op < 4:
		id, err := m.Allocate()
		r.ops = append(r.ops, fmt.Sprintf("Allocate → %d", id))
		if err != nil {
			return err
		}
		if _, ok := r.live[id]; ok {
			return fmt.Errorf("Allocate returned live page %d", id)
		}
		if _, ok := r.publish[id]; ok {
			return fmt.Errorf("Allocate returned page %d of the published snapshot", id)
		}
		if _, ok := r.commit[id]; ok {
			return fmt.Errorf("Allocate returned page %d of the committed state", id)
		}
		for i, p := range r.pins {
			if _, ok := p.snap[id]; ok {
				return fmt.Errorf("Allocate returned page %d of pin %d's snapshot", id, i)
			}
		}
		r.liveIDs = append(r.liveIDs, id)
		r.private[id] = true
		return r.write(id)
	case op < 5:
		if len(r.private) == 0 {
			return nil
		}
		id := r.liveIDs[len(r.liveIDs)-1]
		if !r.private[id] {
			return nil
		}
		r.ops = append(r.ops, fmt.Sprintf("Write %d", id))
		return r.write(id)
	case op < 8:
		if len(r.liveIDs) == 0 {
			return nil
		}
		i := r.rng.Intn(len(r.liveIDs))
		id := r.liveIDs[i]
		r.liveIDs = slices.Delete(r.liveIDs, i, i+1)
		delete(r.live, id)
		delete(r.private, id)
		r.ops = append(r.ops, fmt.Sprintf("FreeDeferred %d", id))
		return m.FreeDeferred(id)
	case op < 9:
		r.ops = append(r.ops, "CommitMeta")
		if err := m.CommitMeta(nil); err != nil {
			return err
		}
		r.commit = maps.Clone(r.live)
		clear(r.private)
		return r.checkPersisted()
	case op < 10:
		r.ops = append(r.ops, "publish + AdvanceEpoch")
		r.publish = maps.Clone(r.live)
		clear(r.private)
		m.AdvanceEpoch()
	case op < 12:
		r.ops = append(r.ops, fmt.Sprintf("PinEpoch (pin %d)", len(r.pins)))
		r.pins = append(r.pins, &modelPin{pin: m.PinEpoch(), snap: r.publish})
	case op < 14:
		if len(r.pins) == 0 {
			return nil
		}
		i := r.rng.Intn(len(r.pins))
		r.ops = append(r.ops, fmt.Sprintf("UnpinEpoch (pin %d)", i))
		m.UnpinEpoch(r.pins[i].pin)
		r.pins = slices.Delete(r.pins, i, i+1)
	default:
		if len(r.pins) == 0 {
			return nil
		}
		i := r.rng.Intn(len(r.pins))
		p := r.pins[i]
		if len(p.snap) == 0 {
			return nil
		}
		ids := make([]PageID, 0, len(p.snap))
		for id := range p.snap {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		id := ids[r.rng.Intn(len(ids))]
		r.ops = append(r.ops, fmt.Sprintf("ReadDecoded %d (pin %d)", id, i))
		v, err := m.ReadDecoded(id, nil, p.pin, viewDecode)
		if err != nil {
			return err
		}
		page := v.([]byte)
		if want := modelPage(p.snap[id], m.PageSize()); !bytes.Equal(page, want) {
			return fmt.Errorf("pin %d reads page %d as version %d, want %d", i, id, binary.LittleEndian.Uint64(page), p.snap[id])
		}
		p.views = append(p.views, [2][]byte{page, bytes.Clone(page)})
	}
	return r.check()
}

// write writes a new version of a live page.
func (r *reclaimModel) write(id PageID) error {
	r.version++
	r.live[id] = r.version
	return r.m.Write(id, modelPage(r.version, r.m.PageSize()))
}

// check asserts what holds after every step: held views keep their bytes,
// and the manager counts the model's pins.
func (r *reclaimModel) check() error {
	for i, p := range r.pins {
		for _, v := range p.views {
			if !bytes.Equal(v[0], v[1]) {
				return fmt.Errorf("a view held under pin %d changed", i)
			}
		}
	}
	if n := r.m.PinnedReaders(); n != len(r.pins) {
		return fmt.Errorf("PinnedReaders = %d, the model holds %d", n, len(r.pins))
	}
	r.maxLimbo = max(r.maxLimbo, r.m.LimboPages())
	return nil
}

// cover checks that the committed pages and a freelist partition [0, next).
func cover(committed map[PageID]uint64, next PageID, freelist []PageID) error {
	seen := make(map[PageID]bool, next)
	for id := range committed {
		seen[id] = true
	}
	for _, id := range freelist {
		if seen[id] {
			return fmt.Errorf("freelist holds page %d twice or a committed one", id)
		}
		seen[id] = true
	}
	for id := PageID(0); id < next; id++ {
		if !seen[id] {
			return fmt.Errorf("page %d is neither committed nor free: leaked", id)
		}
	}
	return nil
}

// checkPersisted checks the freelist the last commit persisted.
func (r *reclaimModel) checkPersisted() error {
	payload, _, err := r.m.backend.ReadMeta()
	if err != nil {
		return err
	}
	next, freelist, _, err := decodeManagerMeta(payload)
	if err != nil {
		return err
	}
	if err := cover(r.commit, next, freelist); err != nil {
		return fmt.Errorf("persisted: %w", err)
	}
	return nil
}

// drain releases every pin, commits and publishes, and checks that no freed
// page awaits reclamation, the live freelist and the live pages cover every
// page, and a reopen's persisted freelist does too.
func (r *reclaimModel) drain() error {
	r.ops = append(r.ops, "drain: unpin all, CommitMeta, publish + AdvanceEpoch")
	for _, p := range r.pins {
		r.m.UnpinEpoch(p.pin)
	}
	r.pins = nil
	if err := r.m.CommitMeta(nil); err != nil {
		return err
	}
	r.commit = maps.Clone(r.live)
	r.publish = r.commit
	r.m.AdvanceEpoch()
	if err := r.check(); err != nil {
		return err
	}
	if n := r.m.LimboPages(); n != 0 {
		return fmt.Errorf("%d pages await reclamation with no pin held", n)
	}
	r.m.allocMu.Lock()
	freelist := slices.Clone(r.m.freelist)
	r.m.allocMu.Unlock()
	if err := cover(r.live, PageID(r.m.NumPages()), freelist); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	m2, err := r.reopen()
	if err != nil {
		return err
	}
	defer m2.Close()
	if err := cover(r.live, PageID(m2.NumPages()), m2.freelist); err != nil {
		return fmt.Errorf("reopened: %w", err)
	}
	return nil
}

// runReclamation runs steps steps of seed's program on a new manager, then
// drains it. It returns the operations run and the first violation.
func runReclamation(t *testing.T, file bool, seed int64, steps int) (ops []string, maxLimbo int, err error) {
	const pageSize = 1000
	var m *Manager
	var reopen func() (*Manager, error)
	if file {
		path := filepath.Join(t.TempDir(), "pages")
		fb, err := CreateFile(path, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		m, err = NewManager(fb, pageSize, WithCacheBytes(4*pageSize))
		if err != nil {
			t.Fatal(err)
		}
		reopen = func() (*Manager, error) {
			fb, err := OpenFile(path)
			if err != nil {
				return nil, err
			}
			return NewManager(fb, pageSize)
		}
	} else {
		mb := NewMemBackend(pageSize)
		m, err = NewManager(mb, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		reopen = func() (*Manager, error) { return NewManager(mb, pageSize) }
	}
	defer m.Close()
	r := &reclaimModel{
		m: m, reopen: reopen, rng: rand.New(rand.NewSource(seed)),
		live: map[PageID]uint64{}, private: map[PageID]bool{},
		publish: map[PageID]uint64{}, commit: map[PageID]uint64{},
	}
	for i := 0; i < steps && err == nil; i++ {
		err = r.step()
	}
	if err == nil {
		err = r.drain()
	}
	return r.ops, r.maxLimbo, err
}

// TestReclamationModel runs seeded random programs of Allocate, Write,
// FreeDeferred, CommitMeta, publish + AdvanceEpoch, PinEpoch/UnpinEpoch and
// pinned ReadDecoded views on a memory manager and on a file manager whose
// cache holds 4 pages, against a model of the pages each snapshot
// references. After every step: Allocate never returns a live page, a page of
// the published snapshot, of the committed state or of a held pin's
// snapshot; every view keeps its bytes until its pin is released; every
// commit persists a freelist that with the committed pages covers every page
// once. Once every pin is released and a commit and an advance have run, no
// page awaits reclamation and none has leaked, live or after a reopen. The
// file programs must free more pages in one grace period than the 4 images
// it keeps, so pages beyond the image cap are seen reclaimed. A failure
// names the seed and the shortest failing prefix of its program.
func TestReclamationModel(t *testing.T) {
	const seeds, steps = 24, 300
	for _, file := range []bool{false, true} {
		name := map[bool]string{false: "mem", true: "file"}[file]
		t.Run(name, func(t *testing.T) {
			maxLimbo := 0
			for seed := int64(1); seed <= seeds; seed++ {
				ops, limbo, err := runReclamation(t, file, seed, steps)
				maxLimbo = max(maxLimbo, limbo)
				if err == nil {
					continue
				}
				for n := 0; n < len(ops); n++ {
					if short, _, serr := runReclamation(t, file, seed, n); serr != nil {
						ops, err = short, serr
						break
					}
				}
				t.Fatalf("seed %d: %v\nshortest failing program (%d operations):\n  %s", seed, err, len(ops), strings.Join(ops, "\n  "))
			}
			if file && maxLimbo <= 4 {
				t.Errorf("at most %d pages awaited reclamation at once: nothing was freed beyond the image cap", maxLimbo)
			}
		})
	}
}

// BenchmarkPinUnpin times one PinEpoch + UnpinEpoch on a memory manager and
// on a file manager (which also owns its page images), from one goroutine
// and from GOMAXPROCS goroutines.
func BenchmarkPinUnpin(b *testing.B) {
	const pageSize = 1016
	for _, file := range []bool{false, true} {
		var backend Backend = NewMemBackend(pageSize)
		name := "mem"
		if file {
			fb, err := CreateFile(filepath.Join(b.TempDir(), "pages"), pageSize)
			if err != nil {
				b.Fatal(err)
			}
			backend, name = fb, "file"
		}
		m, err := NewManager(backend, pageSize, WithCacheBytes(64*pageSize))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.UnpinEpoch(m.PinEpoch())
			}
		})
		b.Run(name+"/parallel", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					m.UnpinEpoch(m.PinEpoch())
				}
			})
		})
		m.Close()
	}
}
