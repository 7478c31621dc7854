package pagefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime/debug"
)

// MemBackend keeps pages in memory: the page images it is given, each held
// once and handed back to every read. It is the default substrate for tests
// and benchmarks: physical reads and seeks are still counted by the Manager,
// so the disk cost model applies identically, just without real I/O latency.
// Meta commits are retained in memory, so the commit/recover protocol can be
// exercised without touching a file system.
type MemBackend struct {
	pageSize int
	pages    [][]byte
	meta     []byte
	metaSeq  uint64
	closed   bool
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend(pageSize int) *MemBackend {
	return &MemBackend{pageSize: pageSize}
}

// ReadPage implements Backend: the image WritePage was given, itself.
func (b *MemBackend) ReadPage(id PageID) ([]byte, error) {
	if b.closed {
		return nil, ErrClosed
	}
	if int(id) >= len(b.pages) || b.pages[id] == nil {
		// Reading a never-written page yields zeroes, like a sparse file.
		return make([]byte, b.pageSize), nil
	}
	return b.pages[id], nil
}

// WritePage implements Backend, keeping the image.
func (b *MemBackend) WritePage(id PageID, image []byte) error {
	if b.closed {
		return ErrClosed
	}
	if len(image) != b.pageSize {
		return fmt.Errorf("pagefile: mem write of %d bytes, want page size %d", len(image), b.pageSize)
	}
	for int(id) >= len(b.pages) {
		b.pages = append(b.pages, nil)
	}
	b.pages[id] = image
	return nil
}

// NumPages implements Backend.
func (b *MemBackend) NumPages() int { return len(b.pages) }

// Sync implements Backend; memory is always "durable".
func (b *MemBackend) Sync() error {
	if b.closed {
		return ErrClosed
	}
	return nil
}

// ReadMeta implements Backend.
func (b *MemBackend) ReadMeta() ([]byte, uint64, error) {
	if b.closed {
		return nil, 0, ErrClosed
	}
	if b.metaSeq == 0 {
		return nil, 0, nil
	}
	return append([]byte(nil), b.meta...), b.metaSeq, nil
}

// WriteMeta implements Backend.
func (b *MemBackend) WriteMeta(payload []byte, seq uint64) error {
	if b.closed {
		return ErrClosed
	}
	b.meta = append([]byte(nil), payload...)
	b.metaSeq = seq
	return nil
}

// Close implements Backend.
func (b *MemBackend) Close() error {
	b.closed = true
	b.pages = nil
	return nil
}

// FileBackend stores pages in an ordinary file using the versioned durable
// format of format.go: a checksummed header, a double-buffered meta page,
// and per-page CRC trailers. Data page id lives at slot reservedSlots+id.
//
// A miss reads without a syscall on 64-bit Linux: ReadPage copies the slot
// out of a read-only shared mapping of the file into a fresh image, and
// ReadPageInto into the caller's, and checks the CRC on that copy. The first
// read maps the file, a read past the mapping remaps it at twice the length
// it needs, Close unmaps, and a fault during the copy is an error naming the
// page. Other systems, 32-bit hosts and a file the kernel refuses to map read
// with ReadAt; writes use WriteAt.
type FileBackend struct {
	f        *os.File
	pageSize int
	pages    int // data pages present
	meta     []byte
	metaSeq  uint64
	// slot is the slot image ReadAt reads into and WritePage seals into,
	// reused across calls (reads and writes are serialized by contract).
	slot []byte
	// view is the file's read-only mapping, nil until the first mapped
	// read; unmappable is set once the kernel refuses to map the file.
	view       []byte
	unmappable bool
}

// CreateFile creates a fresh page file at path, writing (and syncing) the
// format header. A file holding a committed page file — or any content this
// package cannot prove it owns — is rejected with ErrExists, so existing
// data can never be silently clobbered. Two kinds of crashed-create debris
// are provably unrecoverable and reclaimed instead, so a crashed create
// never wedges the path:
//
//   - a valid page file with no committed meta record (the create reached
//     the header sync but never its first commit);
//   - an entirely zero-filled file (the crash lost the header to delayed
//     allocation before it reached the disk).
//
// A missing or empty file is simply created.
func CreateFile(path string, pageSize int) (*FileBackend, error) {
	if pageSize < headerLen {
		return nil, fmt.Errorf("pagefile: page size %d too small (minimum %d)", pageSize, headerLen)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size() != 0 {
		prior, aerr := attachFile(f)
		reclaim := aerr == nil && prior.metaSeq == 0
		if !reclaim && aerr != nil {
			zero, zerr := zeroFilled(f, info.Size())
			if zerr != nil {
				f.Close()
				return nil, zerr
			}
			reclaim = zero
		}
		switch {
		case reclaim:
			// Uncommitted debris: reinitialize below.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, err
			}
		case aerr == nil:
			f.Close()
			return nil, fmt.Errorf("%w: %s holds a committed page file; use OpenFile to reattach", ErrExists, path)
		default:
			f.Close()
			return nil, fmt.Errorf("%w: %s holds foreign data (%v)", ErrExists, path, aerr)
		}
	}
	if _, err := f.WriteAt(encodeHeader(pageSize), 0); err != nil {
		f.Close()
		return nil, err
	}
	// Make the header durable before handing the backend out: from here on
	// a crash leaves either this valid header (metaSeq 0 → reclaimable) or
	// the pre-create state, never an ambiguous in-between.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &FileBackend{f: f, pageSize: pageSize, slot: make([]byte, slotSize(pageSize))}, nil
}

// zeroFilled reports whether the file's first size bytes are all zero.
func zeroFilled(f *os.File, size int64) (bool, error) {
	buf := make([]byte, 64<<10)
	for off := int64(0); off < size; {
		n := min(int64(len(buf)), size-off)
		if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf[:n]); err != nil {
			return false, err
		}
		for _, b := range buf[:n] {
			if b != 0 {
				return false, nil
			}
		}
		off += n
	}
	return true, nil
}

// OpenFile reattaches an existing page file. The page size is read from the
// validated header, and the last committed meta page (the valid slot with
// the highest sequence number) is loaded; a torn newest slot falls back to
// the previous commit.
func OpenFile(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	b, err := attachFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return b, nil
}

func attachFile(f *os.File) (*FileBackend, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, headerLen), hdr); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadFormat, err)
	}
	pageSize, err := decodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	b := &FileBackend{f: f, pageSize: pageSize, slot: make([]byte, slotSize(pageSize))}
	slot := int64(slotSize(pageSize))
	if data := info.Size() - int64(reservedSlots)*slot; data > 0 {
		// A torn final page write leaves a partial slot; it is simply not
		// counted (it cannot belong to any committed state).
		b.pages = int(data / slot)
	}
	// Load the newest valid meta commit from the two alternating slots.
	for _, s := range []int{metaSlotA, metaSlotB} {
		buf := make([]byte, slot)
		if _, err := f.ReadAt(buf, int64(s)*slot); err != nil {
			continue // short or unwritten slot: no valid commit there
		}
		if payload, seq, ok := decodeMetaSlot(buf); ok && seq > b.metaSeq {
			b.meta, b.metaSeq = payload, seq
		}
	}
	return b, nil
}

// PageSize returns the page size recorded in the file header.
func (b *FileBackend) PageSize() int { return b.pageSize }

func (b *FileBackend) slotOffset(id PageID) int64 {
	return int64(reservedSlots+int(id)) * int64(slotSize(b.pageSize))
}

// ReadPage implements Backend, verifying the page's CRC trailer: one fresh
// page-sized image per read, copied out of the file's mapping where there
// is one and read with ReadAt elsewhere.
func (b *FileBackend) ReadPage(id PageID) ([]byte, error) { return b.read(id, nil, true) }

// ReadPageInto implements ImageReader: ReadPage into image unless it is nil.
func (b *FileBackend) ReadPageInto(id PageID, image []byte) ([]byte, error) {
	return b.read(id, image, true)
}

// read is ReadPageInto with its body chosen: mapped asks for the mapping,
// which only a 64-bit Linux host grants (mmap_linux.go); otherwise, or if
// the kernel refuses, the slot is read with ReadAt.
func (b *FileBackend) read(id PageID, image []byte, mapped bool) ([]byte, error) {
	if b.f == nil {
		return nil, ErrClosed
	}
	if int(id) >= b.pages {
		if image == nil {
			return make([]byte, b.pageSize), nil
		}
		clear(image)
		return image, nil
	}
	off := b.slotOffset(id)
	end := off + int64(len(b.slot))
	if mapped && b.mapTo(end) {
		return b.readMapped(id, image, off, end)
	}
	if _, err := b.f.ReadAt(b.slot, off); err != nil {
		return nil, readErr(id, err)
	}
	data, err := verifyPage(b.slot, id)
	if err != nil {
		return nil, err
	}
	return fill(image, data), nil
}

// fill copies a page's bytes into image, or into a fresh one when image is
// nil (bytes.Clone: nothing is zeroed first).
func fill(image, page []byte) []byte {
	if image == nil {
		return bytes.Clone(page)
	}
	copy(image, page)
	return image
}

// readMapped copies the page bytes of the slot at [off, end) out of the
// mapping into image (fresh if nil) and checks the stored CRC against the
// copy.
func (b *FileBackend) readMapped(id PageID, image []byte, off, end int64) ([]byte, error) {
	image, stored, err := copySlot(b.view[off:end], image)
	if err == nil {
		if err = checkPage(image, stored, id); err == nil {
			return image, nil
		}
	} else {
		err = readErr(id, err)
	}
	// A slot the file no longer holds whole fails as it does under ReadAt,
	// whether the mapping faulted or read the zeroes past the end.
	if info, serr := b.f.Stat(); serr == nil && info.Size() < end {
		err = readErr(id, io.ErrUnexpectedEOF)
	}
	return nil, err
}

// copySlot copies a slot's page bytes into image (fresh if nil) and returns
// it with the stored CRC. A fault while reading the mapping panics under
// SetPanicOnFault; the panic is recovered here and returned as an error.
func copySlot(slot, into []byte) (image []byte, stored uint32, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("fault at address %#x in the file's mapping: %v", fault.Addr(), r)
		}
	}()
	n := len(slot) - pageTrailerLen
	return fill(into, slot[:n]), binary.LittleEndian.Uint32(slot[n:]), nil
}

// readErr names the page a failed read was for; a slot cut short by the
// end of the file reads as io.ErrUnexpectedEOF on either body.
func readErr(id PageID, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("pagefile: reading page %d: %w", id, err)
}

// WritePage implements Backend, sealing the page with its CRC trailer.
func (b *FileBackend) WritePage(id PageID, image []byte) error {
	if b.f == nil {
		return ErrClosed
	}
	if len(image) != b.pageSize {
		return fmt.Errorf("pagefile: file write of %d bytes, want page size %d", len(image), b.pageSize)
	}
	if _, err := b.f.WriteAt(sealPage(b.slot, image), b.slotOffset(id)); err != nil {
		return err
	}
	if int(id) >= b.pages {
		b.pages = int(id) + 1
	}
	return nil
}

// NumPages implements Backend.
func (b *FileBackend) NumPages() int { return b.pages }

// Sync flushes the file to stable storage.
func (b *FileBackend) Sync() error {
	if b.f == nil {
		return ErrClosed
	}
	return b.f.Sync()
}

// ReadMeta implements Backend, returning the last committed meta payload.
func (b *FileBackend) ReadMeta() ([]byte, uint64, error) {
	if b.f == nil {
		return nil, 0, ErrClosed
	}
	if b.metaSeq == 0 {
		return nil, 0, nil
	}
	return append([]byte(nil), b.meta...), b.metaSeq, nil
}

// WriteMeta implements Backend: the commit goes to the slot the sequence
// number selects, which is always the slot NOT holding the last valid
// commit, so a torn write here never corrupts the committed state.
func (b *FileBackend) WriteMeta(payload []byte, seq uint64) error {
	if b.f == nil {
		return ErrClosed
	}
	slot, err := encodeMetaSlot(b.pageSize, payload, seq)
	if err != nil {
		return err
	}
	off := int64(metaSlotFor(seq)) * int64(slotSize(b.pageSize))
	if _, err := b.f.WriteAt(slot, off); err != nil {
		return err
	}
	b.meta = append(b.meta[:0], payload...)
	b.metaSeq = seq
	return nil
}

// Close implements Backend.
func (b *FileBackend) Close() error {
	if b.f == nil {
		return nil
	}
	b.unmap()
	err := b.f.Close()
	b.f = nil
	return err
}
