package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The durable file format. A page file is a sequence of fixed-size slots of
// slotSize(pageSize) bytes each:
//
//	slot 0        file header: magic, format version, page size, CRC
//	slot 1, 2     double-buffered meta page (alternating commit slots)
//	slot 3 + id   data page id: pageSize bytes of payload + CRC trailer
//
// The meta page carries a monotonically increasing sequence number and a
// CRC32-C checksum; commits alternate between the two slots, so a torn meta
// write can only destroy the slot being written, never the last committed
// one. Data pages carry per-page checksums so torn or bit-rotted pages are
// detected on read instead of being silently decoded.

// Magic identifies a Gauss-tree page file (first 8 bytes of the header).
const Magic = "GaussPF1"

// FormatVersion is the on-disk format version written into the header.
const FormatVersion = 1

const (
	// slot 0 is the file header
	metaSlotA     = 1
	metaSlotB     = 2
	reservedSlots = 3

	// pageTrailerLen is the per-data-page trailer: CRC32-C (4 bytes) plus 4
	// reserved zero bytes keeping slots 8-byte aligned.
	pageTrailerLen = 8

	// headerLen is the encoded header: magic (8) + version (4) + page size
	// (4) + CRC32-C over the first 16 bytes (4).
	headerLen = 20

	// metaSlotOverhead is the meta slot framing: sequence number (8) +
	// payload length (4) + CRC32-C over sequence, length and payload (4).
	metaSlotOverhead = 16
)

// Errors surfaced by the durable format.
var (
	// ErrChecksum reports a page or header whose stored checksum does not
	// match its content (torn write or external corruption).
	ErrChecksum = errors.New("pagefile: checksum mismatch")
	// ErrBadFormat reports a file that is not a Gauss-tree page file or has
	// an unsupported format version.
	ErrBadFormat = errors.New("pagefile: bad file format")
	// ErrExists reports a CreateFile target that already holds data.
	ErrExists = errors.New("pagefile: file already holds a page file")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// slotSize returns the on-disk size of one slot for a given page size.
func slotSize(pageSize int) int { return pageSize + pageTrailerLen }

// MetaCapacity returns the maximum meta payload (in bytes) a page file with
// the given page size can commit in one meta slot.
func MetaCapacity(pageSize int) int { return slotSize(pageSize) - metaSlotOverhead }

// encodeHeader renders the file header into a full slot image.
func encodeHeader(pageSize int) []byte {
	buf := make([]byte, slotSize(pageSize))
	copy(buf, Magic)
	binary.LittleEndian.PutUint32(buf[8:], FormatVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(pageSize))
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[:16], castagnoli))
	return buf
}

// decodeHeader validates a header prefix and returns the page size.
func decodeHeader(buf []byte) (pageSize int, err error) {
	if len(buf) < headerLen {
		return 0, fmt.Errorf("%w: file shorter than header (%d bytes)", ErrBadFormat, len(buf))
	}
	if string(buf[:8]) != Magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadFormat, buf[:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != FormatVersion {
		return 0, fmt.Errorf("%w: unsupported format version %d (want %d)", ErrBadFormat, v, FormatVersion)
	}
	if got, want := crc32.Checksum(buf[:16], castagnoli), binary.LittleEndian.Uint32(buf[16:]); got != want {
		return 0, fmt.Errorf("%w: header CRC %08x, stored %08x", ErrChecksum, got, want)
	}
	pageSize = int(binary.LittleEndian.Uint32(buf[12:]))
	if pageSize <= 0 {
		return 0, fmt.Errorf("%w: header page size %d", ErrBadFormat, pageSize)
	}
	return pageSize, nil
}

// encodeMetaSlot renders one meta commit into a full slot image.
func encodeMetaSlot(pageSize int, payload []byte, seq uint64) ([]byte, error) {
	if len(payload) > MetaCapacity(pageSize) {
		return nil, fmt.Errorf("pagefile: meta payload %d bytes exceeds capacity %d", len(payload), MetaCapacity(pageSize))
	}
	buf := make([]byte, slotSize(pageSize))
	binary.LittleEndian.PutUint64(buf, seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	copy(buf[12:], payload)
	crc := crc32.Checksum(buf[:12+len(payload)], castagnoli)
	binary.LittleEndian.PutUint32(buf[12+len(payload):], crc)
	return buf, nil
}

// decodeMetaSlot parses one meta slot. ok is false when the slot holds no
// valid commit (all-zero, torn or corrupted) — that is not an error: the
// caller falls back to the other slot.
func decodeMetaSlot(buf []byte) (payload []byte, seq uint64, ok bool) {
	if len(buf) < metaSlotOverhead {
		return nil, 0, false
	}
	seq = binary.LittleEndian.Uint64(buf)
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	if seq == 0 || n < 0 || 12+n+4 > len(buf) {
		return nil, 0, false
	}
	crc := crc32.Checksum(buf[:12+n], castagnoli)
	if crc != binary.LittleEndian.Uint32(buf[12+n:]) {
		return nil, 0, false
	}
	return append([]byte(nil), buf[12:12+n]...), seq, true
}

// metaSlotFor returns which meta slot a commit with the given sequence
// number is written to. Consecutive sequence numbers alternate slots, so a
// commit never overwrites the previous (still valid) commit.
func metaSlotFor(seq uint64) int {
	if seq&1 == 1 {
		return metaSlotA
	}
	return metaSlotB
}

// sealPage renders a data page into slot, a slot image: the data, its CRC
// and the reserved zero bytes.
func sealPage(slot, data []byte) []byte {
	n := copy(slot, data)
	binary.LittleEndian.PutUint64(slot[n:], uint64(crc32.Checksum(data, castagnoli)))
	return slot
}

// verifyPage checks a slot image's CRC trailer and returns the page data.
func verifyPage(slot []byte, id PageID) ([]byte, error) {
	data := slot[:len(slot)-pageTrailerLen]
	return data, checkPage(data, binary.LittleEndian.Uint32(slot[len(data):]), id)
}

// checkPage checks page data against the CRC its trailer stored.
func checkPage(data []byte, stored uint32, id PageID) error {
	if got := crc32.Checksum(data, castagnoli); got != stored {
		return fmt.Errorf("%w: page %d CRC %08x, stored %08x", ErrChecksum, id, got, stored)
	}
	return nil
}
