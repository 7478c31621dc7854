package pagefile_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/gauss-tree/gausstree/internal/fault"
	"github.com/gauss-tree/gausstree/internal/pagefile"
)

// imageLog keeps every page image handed out or handed over, beside a copy
// taken when it changed hands.
type imageLog struct {
	images, copies [][]byte
	where          []string
}

func (l *imageLog) keep(image []byte, format string, args ...any) {
	l.images = append(l.images, image)
	l.copies = append(l.copies, bytes.Clone(image))
	l.where = append(l.where, fmt.Sprintf(format, args...))
}

// recorder logs the images crossing the Backend interface in both
// directions.
type recorder struct {
	pagefile.Backend
	log *imageLog
}

func (r recorder) ReadPage(id pagefile.PageID) ([]byte, error) {
	image, err := r.Backend.ReadPage(id)
	if err == nil {
		r.log.keep(image, "backend read of page %d", id)
	}
	return image, err
}

func (r recorder) WritePage(id pagefile.PageID, image []byte) error {
	r.log.keep(image, "backend write of page %d", id)
	return r.Backend.WritePage(id, image)
}

// TestPageImagesAreImmutable: a page image is immutable from the moment a
// backend or the cache has it, because decoded pages view their images.
// Every image the backend was given or returned, the cache served
// (ReadCounted) or a DecodeFunc was shown is logged with a copy; after a run
// of writes, decoded and byte reads through a two-page cache (so most reads
// miss), a deferred free and reuse across CommitMeta, a torn write and a
// cold restart of the cache, every logged image must still equal its copy. A
// miss that decoded from a reused buffer, or a backend or fault layer that
// wrote into an image, fails it.
func TestPageImagesAreImmutable(t *testing.T) {
	const pageSize = 64
	backends := map[string]func(t *testing.T) pagefile.Backend{
		"mem": func(*testing.T) pagefile.Backend { return pagefile.NewMemBackend(pageSize) },
		"file": func(t *testing.T) pagefile.Backend {
			fb, err := pagefile.CreateFile(filepath.Join(t.TempDir(), "pages"), pageSize)
			if err != nil {
				t.Fatal(err)
			}
			return fb
		},
	}
	for name, newBackend := range backends {
		t.Run(name, func(t *testing.T) {
			log := &imageLog{}
			inj := fault.New()
			m, err := pagefile.NewManager(recorder{fault.WrapBackend(newBackend(t), inj), log}, pageSize, pagefile.WithCacheBytes(2*pageSize))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			decode := func(id pagefile.PageID, page []byte) (any, error) {
				log.keep(page, "decode of page %d", id)
				return page, nil
			}
			// torn is the page a torn write leaves unreadable on a file.
			torn := pagefile.NilPage
			readAll := func(ids []pagefile.PageID) {
				t.Helper()
				for _, id := range ids {
					if _, err := m.ReadDecoded(id, nil, pagefile.Pin{}, decode); err != nil && !(id == torn && errors.Is(err, pagefile.ErrChecksum)) {
						t.Fatal(err)
					}
					data, err := m.ReadCounted(id, nil)
					if err != nil && !(id == torn && errors.Is(err, pagefile.ErrChecksum)) {
						t.Fatal(err)
					}
					if err == nil {
						log.keep(data, "cached bytes of page %d", id)
					}
				}
			}
			write := func(id pagefile.PageID, text string) {
				t.Helper()
				var err error
				if id%2 == 0 {
					err = m.Write(id, []byte(text))
				} else {
					err = m.WriteDecoded(id, []byte(text), decode)
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			ids := make([]pagefile.PageID, 5)
			for i := range ids {
				if ids[i], err = m.Allocate(); err != nil {
					t.Fatal(err)
				}
				write(ids[i], fmt.Sprintf("page %d, first version", i))
			}
			if err := m.CommitMeta(nil); err != nil {
				t.Fatal(err)
			}
			m.AdvanceEpoch()
			for round := 0; round < 3; round++ {
				readAll(ids)
			}

			// A deferred free, reused once a commit and an epoch have passed.
			if err := m.FreeDeferred(ids[1]); err != nil {
				t.Fatal(err)
			}
			if err := m.CommitMeta(nil); err != nil {
				t.Fatal(err)
			}
			m.AdvanceEpoch()
			if id, _ := m.Allocate(); id != ids[1] {
				t.Fatalf("deferred free of page %d not reused (got %d)", ids[1], id)
			}
			write(ids[1], "page 1, reused")
			readAll(ids)

			// A torn write: half of a new version reaches the backend.
			if err := inj.Arm(fault.Schedule{Seed: 1, Ops: map[fault.Op]fault.Rule{fault.OpPageWrite: {Prob: 1, Torn: true}}}); err != nil {
				t.Fatal(err)
			}
			image := bytes.Repeat([]byte{'t'}, pageSize)
			if err := m.Write(ids[2], image); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("torn write: error %v, want the injected fault", err)
			}
			inj.Disarm()
			torn = ids[2]
			m.DropCache()
			readAll(ids)
			write(ids[3], "page 3, second version")
			if err := m.CommitMeta(nil); err != nil {
				t.Fatal(err)
			}
			readAll(ids)

			for i, image := range log.images {
				if !bytes.Equal(image, log.copies[i]) {
					t.Errorf("%s: the image changed afterwards\nthen %q\nnow  %q", log.where[i], log.copies[i], image)
				}
			}
			if len(log.images) < 100 {
				t.Errorf("only %d images logged", len(log.images))
			}
		})
	}
}
