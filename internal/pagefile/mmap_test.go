package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// mapsFiles reports whether this host reads a FileBackend's misses out of a
// mapping; elsewhere both read bodies are ReadAt and the tests below check
// only that.
const mapsFiles = runtime.GOOS == "linux" && strconv.IntSize == 64

// errClass names the class of a read error, which both read bodies must
// agree on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrChecksum):
		return "checksum"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "eof"
	}
	return "other: " + err.Error()
}

// sameRead reads page id with the mapped body and with the ReadAt body, each
// into a fresh image and into a scribbled one the caller owns, and fails
// unless all four give the same image (the caller's, when it gave one) or
// the same class of error.
func sameRead(t *testing.T, b *FileBackend, id PageID) ([]byte, error) {
	t.Helper()
	mapped, merr := b.read(id, nil, true)
	for _, body := range []bool{true, false} {
		for _, into := range [][]byte{nil, bytes.Repeat([]byte{0xA5}, b.pageSize)} {
			got, err := b.read(id, into, body)
			if errClass(err) != errClass(merr) {
				t.Fatalf("page %d: mapped read error %v, read (mapped %v, into an image %v) error %v", id, merr, body, into != nil, err)
			}
			if !bytes.Equal(got, mapped) {
				t.Fatalf("page %d: images differ (mapped %v, into an image %v)", id, body, into != nil)
			}
			if err == nil && into != nil && &got[0] != &into[0] {
				t.Fatalf("page %d: not read into the image given (mapped %v)", id, body)
			}
		}
	}
	return mapped, merr
}

// scribble overwrites n bytes at off of the file at path through a file
// descriptor of its own, as another process would.
func scribble(t *testing.T, path string, off int64, n int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xA5}, n), off); err != nil {
		t.Fatal(err)
	}
}

// TestFileReadBodiesAgree runs the mapped read body and the ReadAt body over
// the same file: random page writes that grow the file across several
// remaps (holes between them read as checksum errors), a slot scribbled on
// disk under the open backend, ids at and past NumPages, a torn final slot
// after reopening, and reads after Close. Every read must give the same
// image or the same class of error on both.
func TestFileReadBodiesAgree(t *testing.T) {
	const pageSize = 256
	path := filepath.Join(t.TempDir(), "pages")
	b, err := CreateFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := map[PageID][]byte{}
	maps := map[int]bool{}
	for round := 0; round < 12; round++ {
		hi := 4 << (round / 2) // the file roughly doubles every other round
		for i := 0; i < 16; i++ {
			id := PageID(rng.Intn(hi))
			image := make([]byte, pageSize)
			rng.Read(image)
			if err := b.WritePage(id, image); err != nil {
				t.Fatal(err)
			}
			want[id] = image
		}
		for id := PageID(0); int(id) < b.NumPages()+3; id++ {
			got, err := sameRead(t, b, id)
			switch image, written := want[id]; {
			case written && (err != nil || !bytes.Equal(got, image)):
				t.Fatalf("round %d: page %d reads %v, not what was written", round, id, err)
			case !written && int(id) < b.NumPages() && !errors.Is(err, ErrChecksum):
				t.Fatalf("round %d: hole page %d: error %v, want ErrChecksum", round, id, err)
			case int(id) >= b.NumPages() && (err != nil || !bytes.Equal(got, make([]byte, pageSize))):
				t.Fatalf("round %d: page %d past NumPages: %v, want a zero image", round, id, err)
			}
		}
		maps[len(b.view)] = true
	}
	if mapsFiles && len(maps) < 4 {
		t.Errorf("the file was mapped at %d lengths, want at least 4", len(maps))
	}

	// A slot scribbled through another descriptor: the CRC is checked on
	// the copy, so the next read of it fails.
	var victim PageID
	for id := range want {
		victim = id
		break
	}
	scribble(t, path, b.slotOffset(victim)+pageSize/2, 16)
	if _, err := sameRead(t, b, victim); !errors.Is(err, ErrChecksum) {
		t.Fatalf("scribbled page %d: error %v, want ErrChecksum", victim, err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b.view != nil {
		t.Error("Close left the file mapped")
	}
	if _, err := sameRead(t, b, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after Close: %v, want ErrClosed", err)
	}

	// A torn final slot is not a page: it reads as a zero image, like
	// every id past NumPages.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	pages := int(info.Size()/int64(slotSize(pageSize))) - reservedSlots
	scribble(t, path, info.Size(), slotSize(pageSize)/2)
	if b, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.NumPages() != pages {
		t.Fatalf("reopened with %d pages, want %d (the torn slot uncounted)", b.NumPages(), pages)
	}
	for _, id := range []PageID{PageID(pages - 1), PageID(pages), PageID(pages + 1), PageID(pages + 1000)} {
		got, err := sameRead(t, b, id)
		if id >= PageID(pages) && (err != nil || !bytes.Equal(got, make([]byte, pageSize))) {
			t.Fatalf("page %d past the torn slot: %v, want a zero image", id, err)
		}
	}
}

// TestTruncatedFileReadsFail cuts the file under an open FileBackend whose
// mapping covers it: a read past the cut is an error naming the page
// (io.ErrUnexpectedEOF on both bodies), never a crash, and the pages before
// the cut still read. On a host that maps, the copy out of the cut mapping
// must fault and be recovered.
func TestTruncatedFileReadsFail(t *testing.T) {
	const pageSize = 1024
	const pages = 64
	path := filepath.Join(t.TempDir(), "pages")
	b, err := CreateFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	images := make([][]byte, pages)
	for id := range images {
		images[id] = bytes.Repeat([]byte{byte(id + 1)}, pageSize)
		if err := b.WritePage(PageID(id), images[id]); err != nil {
			t.Fatal(err)
		}
	}
	for id := PageID(0); id < pages; id++ {
		if _, err := sameRead(t, b, id); err != nil {
			t.Fatal(err)
		}
	}
	const cut = pages / 2
	if err := os.Truncate(path, b.slotOffset(cut)); err != nil {
		t.Fatal(err)
	}
	for id := PageID(0); id < pages; id++ {
		got, err := sameRead(t, b, id)
		switch {
		case id < cut && (err != nil || !bytes.Equal(got, images[id])):
			t.Fatalf("page %d before the cut: %v", id, err)
		case id >= cut && !errors.Is(err, io.ErrUnexpectedEOF):
			t.Fatalf("page %d past the cut: error %v, want io.ErrUnexpectedEOF", id, err)
		case id >= cut && !strings.Contains(err.Error(), fmt.Sprintf("page %d", id)):
			t.Fatalf("page %d past the cut: error %q does not name the page", id, err)
		}
	}
	if !mapsFiles {
		return
	}
	if b.view == nil {
		t.Fatal("no mapping after mapped reads")
	}
	off := b.slotOffset(pages - 1)
	if _, _, err := copySlot(b.view[off:off+int64(slotSize(pageSize))], nil); err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("copy past the cut: error %v, want a recovered fault", err)
	}
}

// TestMappedReadsBesideAWriter reads through an uncached Manager on two
// goroutines while a third allocates and writes pages, growing the file
// across remaps, and commits every 64 pages (the commit's Syncs run beside
// the reads); run it under -race. Every page read must be the one written,
// and the file must have been read through its mapping where the host maps.
func TestMappedReadsBesideAWriter(t *testing.T) {
	const pageSize = 512
	const pages = 600
	fb, err := CreateFile(filepath.Join(t.TempDir(), "pages"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(fb, pageSize, WithCacheBytes(0))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	image := func(id PageID) []byte {
		page := bytes.Repeat([]byte{byte(id * 7)}, pageSize)
		binary.LittleEndian.PutUint32(page, uint32(id))
		return page
	}
	var written atomic.Int64 // pages [0, written) are on the file
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < pages; i++ {
			id, err := m.Allocate()
			if err == nil {
				err = m.Write(id, image(id))
			}
			if err == nil && i%64 == 63 {
				err = m.CommitMeta(nil)
			}
			if err != nil {
				errs <- err
				return
			}
			written.Store(int64(id) + 1)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4*pages; i++ {
				n := written.Load()
				if n == 0 { // no page yet: wait (unless the writer failed), spending no read
					if len(errs) > 0 {
						return
					}
					runtime.Gosched()
					i--
					continue
				}
				id := PageID(rng.Int63n(n))
				got, err := m.Read(id)
				if err == nil && !bytes.Equal(got, image(id)) {
					err = fmt.Errorf("page %d read back other bytes", id)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if mapsFiles && fb.view == nil {
		t.Error("the reads did not go through the mapping")
	}
}
