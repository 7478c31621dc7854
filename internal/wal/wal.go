// Package wal implements the group-commit write-ahead log of the
// non-blocking write path. Mutations append small logical records (insert,
// delete, merge — each carrying whole probabilistic feature vectors) and
// return immediately; a single committer goroutine batches everything that
// accumulated during a short latency window into one write+fsync, then
// wakes every waiter whose record the batch covered. Burst inserts from any
// number of goroutines therefore share fsyncs instead of paying one each,
// and a single insert is made durable by one (group) fsync of a few dozen
// bytes instead of a full page-store meta commit.
//
// Records are framed as
//
//	length (u32 LE) | LSN (u64) | type (u8) | count (u16) | vectors | CRC32-C (u32)
//
// where length counts the bytes between itself and the trailing checksum,
// each vector uses the fixed-width pfv binary encoding, and the CRC covers
// everything after the length field. The file starts with a 10-byte header
// ("GTWAL", format version, dimension). Recovery scans frames until the
// first torn or corrupt one — a crash mid-group-commit loses only records
// that were never acknowledged — and the tree replays every record whose
// LSN exceeds the appliedLSN persisted in its meta record. LSNs are
// assigned contiguously starting at 1 and survive checkpoint truncation
// (Reset), so a stale frame left behind by a non-durable truncate is
// recognized by its old LSN and skipped.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// RecordType discriminates the logical operations the log can replay.
type RecordType uint8

const (
	// RecInsert adds one vector (Vectors[0]).
	RecInsert RecordType = 1
	// RecDelete removes one stored copy of Vectors[0].
	RecDelete RecordType = 2
	// RecMerge atomically replaces the stored copy Vectors[0] with the
	// moment-matched Vectors[1] (the ingest merge path). One record, so a
	// torn tail can never lose the old vector without gaining the new one.
	RecMerge RecordType = 3
)

// Record is one logical mutation.
type Record struct {
	LSN     uint64
	Type    RecordType
	Vectors []pfv.Vector
}

// Stats exposes the group-commit counters.
type Stats struct {
	// Fsyncs counts fsync batches written so far.
	Fsyncs uint64
	// Records counts records appended so far (durable or pending).
	Records uint64
	// AppendedLSN is the LSN of the last appended record (0 = none).
	AppendedLSN uint64
	// DurableLSN is the highest LSN covered by an fsync or checkpoint.
	DurableLSN uint64
}

// DefaultInterval is the default group-commit latency window: how long the
// committer waits after the first pending record before forcing the fsync,
// giving concurrent appenders time to join the batch.
const DefaultInterval = 2 * time.Millisecond

// maxBatchBytes flushes a batch early once this much is pending, bounding
// both memory and the post-crash replay work of a single group.
const maxBatchBytes = 1 << 20

const (
	headerLen  = 10
	magic      = "GTWAL"
	walVersion = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned (wrapped) by operations on a closed log; test
// with errors.Is.
var ErrClosed = errors.New("wal: closed")

// ErrCorrupt reports a structurally invalid WAL file (bad header). Torn or
// corrupt record tails are NOT errors — they are truncated silently, which
// is exactly the crash-recovery contract. CheckIntegrity is the exception:
// it wraps ErrCorrupt for damage BELOW the durable horizon, where a torn
// frame can only mean bit rot, never a crash.
var ErrCorrupt = errors.New("wal: corrupt log file")

// ErrFailed marks a log killed by an I/O failure: every error the log
// returns after its first failed write or fsync wraps both ErrFailed and
// the original cause, so callers can distinguish "this log is dead"
// (recover by reopening) from a bad argument with errors.Is.
var ErrFailed = errors.New("wal: log failed")

// FaultHook lets a chaos layer inject failures into the committer's write
// path (see internal/fault): a non-nil error from either method is treated
// exactly like the corresponding file operation failing. Both methods are
// called only from the single committer goroutine.
type FaultHook interface {
	// BeforeWALWrite runs before the committer writes a batch.
	BeforeWALWrite() error
	// BeforeWALSync runs before the committer fsyncs a batch.
	BeforeWALSync() error
}

// Log is a group-commit write-ahead log backed by one file. Append may be
// called from any goroutine; one background committer performs all file
// writes. After an I/O failure the log is dead: every subsequent Append
// and WaitDurable returns the first error (the owning tree poisons
// itself on the next mutation).
type Log struct {
	dim      int
	interval time.Duration
	fault    FaultHook // nil = no fault injection

	mu           sync.Mutex
	cond         *sync.Cond // broadcast when durable advances or err is set
	f            *os.File
	buf          []byte // encoded frames not yet handed to the committer
	next         uint64 // next LSN to assign
	pending      uint64 // last LSN sitting in buf (0 = buf empty)
	durable      uint64 // highest LSN covered by fsync or checkpoint
	durableBytes int64  // fsynced frame bytes past the header (CheckIntegrity's horizon)
	resetGen     uint64 // bumped by Reset so a racing flush never re-counts truncated bytes
	err          error  // sticky first I/O failure
	closed       bool

	fsyncs  uint64
	records uint64

	kick chan struct{} // capacity 1: wakes the committer
	stop chan struct{} // closed by Close: wakes the committer, cuts its latency window short
	done chan struct{} // closed by the committer on exit
}

// Options configures a Log.
type Options struct {
	// Interval is the group-commit latency window (DefaultInterval when 0).
	// Shorter windows reduce single-insert latency; longer windows batch
	// more records per fsync under load.
	Interval time.Duration
	// Fault, when non-nil, is consulted before every committer write and
	// fsync so a chaos layer can fail them at will; nil (the default) adds
	// no overhead to the commit path.
	Fault FaultHook
}

// Create creates a new empty log file for vectors of the given dimension,
// truncating any existing file at path.
func Create(path string, dim int, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerLen)
	copy(hdr, magic)
	hdr[5] = walVersion
	binary.LittleEndian.PutUint32(hdr[6:], uint32(dim))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return newLog(f, dim, opts, 1, 0), nil
}

// Open opens an existing log (or creates it when missing), scans every
// intact record and returns them for replay; a torn or corrupt tail is
// truncated away. appliedLSN seeds the LSN sequence when the file holds no
// higher record, so LSNs stay monotone across checkpoint truncations.
func Open(path string, dim int, appliedLSN uint64, opts Options) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if info.Size() == 0 {
		hdr := make([]byte, headerLen)
		copy(hdr, magic)
		hdr[5] = walVersion
		binary.LittleEndian.PutUint32(hdr[6:], uint32(dim))
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return newLog(f, dim, opts, appliedLSN+1, 0), nil, nil
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if len(raw) < headerLen || string(raw[:5]) != magic || raw[5] != walVersion {
		f.Close()
		return nil, nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if got := int(binary.LittleEndian.Uint32(raw[6:])); got != dim {
		f.Close()
		return nil, nil, fmt.Errorf("%w: log dimension %d, tree dimension %d", ErrCorrupt, got, dim)
	}
	records, intact := scanRecords(raw[headerLen:], dim)
	if err := f.Truncate(int64(headerLen + intact)); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(int64(headerLen+intact), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	next := appliedLSN + 1
	for _, r := range records {
		if r.LSN >= next {
			next = r.LSN + 1
		}
	}
	return newLog(f, dim, opts, next, int64(intact)), records, nil
}

func newLog(f *os.File, dim int, opts Options, next uint64, durableBytes int64) *Log {
	interval := opts.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	l := &Log{
		dim:          dim,
		interval:     interval,
		fault:        opts.Fault,
		f:            f,
		next:         next,
		durable:      next - 1,
		durableBytes: durableBytes,
		kick:         make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.committer()
	return l
}

// scanRecords decodes intact frames from buf and returns them together with
// the byte length of the intact prefix.
func scanRecords(buf []byte, dim int) ([]Record, int) {
	var out []Record
	off := 0
	for {
		rec, n, ok := decodeFrame(buf[off:], dim)
		if !ok {
			return out, off
		}
		out = append(out, rec)
		off += n
	}
}

// AppendRecord encodes one frame for rec into dst and returns the result.
// Exported for the fuzz round-trip target; the Log uses it internally.
func AppendRecord(dst []byte, rec Record, dim int) []byte {
	body := 8 + 1 + 2 + len(rec.Vectors)*pfv.EncodedSize(dim)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	dst = append(dst, byte(rec.Type))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Vectors)))
	for _, v := range rec.Vectors {
		dst = pfv.AppendBinary(dst, v)
	}
	sum := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// decodeFrame decodes one frame from the front of buf. ok is false for a
// torn, truncated or corrupt frame (recovery stops there).
func decodeFrame(buf []byte, dim int) (rec Record, n int, ok bool) {
	if len(buf) < 4 {
		return Record{}, 0, false
	}
	body := int(binary.LittleEndian.Uint32(buf))
	if body < 11 || body > len(buf)-8 {
		return Record{}, 0, false
	}
	frame := buf[4 : 4+body]
	sum := binary.LittleEndian.Uint32(buf[4+body:])
	if crc32.Checksum(frame, castagnoli) != sum {
		return Record{}, 0, false
	}
	rec.LSN = binary.LittleEndian.Uint64(frame)
	rec.Type = RecordType(frame[8])
	count := int(binary.LittleEndian.Uint16(frame[9:]))
	if 11+count*pfv.EncodedSize(dim) != body {
		return Record{}, 0, false
	}
	payload := frame[11:]
	for i := 0; i < count; i++ {
		v, used, err := pfv.DecodeBinary(payload, dim)
		if err != nil {
			return Record{}, 0, false
		}
		rec.Vectors = append(rec.Vectors, v)
		payload = payload[used:]
	}
	switch rec.Type {
	case RecInsert, RecDelete:
		if count != 1 {
			return Record{}, 0, false
		}
	case RecMerge:
		if count != 2 {
			return Record{}, 0, false
		}
	default:
		return Record{}, 0, false
	}
	return rec, 4 + body + 4, true
}

// Append assigns the next LSN to a record of the given type and buffers its
// frame for the committer. It never blocks on I/O; call WaitDurable with
// the returned LSN (after releasing any writer lock, so concurrent
// mutations can join the group) to await durability.
func (l *Log) Append(typ RecordType, vectors ...pfv.Vector) (uint64, error) {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	lsn := l.next
	l.next++
	l.buf = AppendRecord(l.buf, Record{LSN: lsn, Type: typ, Vectors: vectors}, l.dim)
	l.pending = lsn
	l.records++
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return lsn, nil
}

// WaitDurable blocks until the record with the given LSN is durable (fsync
// or checkpoint covered) or the log has failed.
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < lsn && l.err == nil {
		if l.closed {
			return fmt.Errorf("%w before record became durable", ErrClosed)
		}
		l.cond.Wait()
	}
	return l.err
}

// Reset truncates the log after a checkpoint: the tree has durably
// committed a meta record with appliedLSN covering every record in the log,
// so the records are obsolete. Durability waiters at or below appliedLSN
// are satisfied by the checkpoint itself (the meta commit is fsync-backed),
// so they are woken without an fsync of the log.
func (l *Log) Reset(appliedLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.buf = l.buf[:0]
	l.pending = 0
	l.durableBytes = 0
	l.resetGen++
	if appliedLSN > l.durable {
		l.durable = appliedLSN
		l.cond.Broadcast()
	}
	if err := l.f.Truncate(headerLen); err != nil {
		return l.fail(err)
	}
	if _, err := l.f.Seek(headerLen, io.SeekStart); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	return nil
}

// Stats returns the group-commit counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Fsyncs:      l.fsyncs,
		Records:     l.records,
		AppendedLSN: l.next - 1,
		DurableLSN:  l.durable,
	}
}

// Close flushes pending records, stops the committer and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	// The committer drains the final batch before exiting, without sitting
	// out a latency window it may be in.
	close(l.stop)
	<-l.done
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Fail poisons the log from outside with a sticky error, as if an I/O
// operation had failed: pending and future appends, Reset truncations and
// durability waits all refuse with an error wrapping ErrFailed (and cause).
// It exists for the serving layer's recovery swap — before reopening the
// log file under a fresh Log, the old instance is failed so its committer
// can never again write to (or truncate) the file both now share. Failing
// an already failed log keeps the first error; Close remains the only way
// to release the file handle.
func (l *Log) Fail(cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fail(cause)
}

// fail records the first I/O error and wakes every waiter. Caller holds mu.
// The sticky error wraps ErrFailed plus the cause, so both
// errors.Is(err, ErrFailed) and errors.Is(err, <cause>) hold.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %w", ErrFailed, err)
		l.cond.Broadcast()
	}
	return l.err
}

// committer is the single goroutine performing file writes: it waits for a
// kick (first record of a group), sleeps the latency window so concurrent
// appenders can join, then writes and fsyncs the whole group at once. Close
// wakes it from either wait.
func (l *Log) committer() {
	defer close(l.done)
	for {
		select {
		case <-l.kick:
		case <-l.stop:
		}
		l.mu.Lock()
		closed := l.closed
		pending := l.pending
		big := len(l.buf) >= maxBatchBytes
		l.mu.Unlock()
		if pending != 0 {
			// Latency window: closed logs and oversized batches flush
			// immediately, everything else gives the group time to form.
			if !closed && !big && l.interval > 0 {
				window := time.NewTimer(l.interval)
				select {
				case <-window.C:
				case <-l.stop:
					window.Stop()
				}
			}
			l.flush()
		}
		if closed {
			return
		}
	}
}

// flush writes and fsyncs everything pending, then advances the durable
// horizon and wakes waiters.
func (l *Log) flush() {
	l.mu.Lock()
	if l.err != nil || l.pending == 0 {
		l.mu.Unlock()
		return
	}
	batch := l.buf
	upto := l.pending
	gen := l.resetGen
	l.buf = nil
	l.pending = 0
	l.mu.Unlock()

	var werr error
	if l.fault != nil {
		werr = l.fault.BeforeWALWrite()
	}
	if werr == nil {
		_, werr = l.f.Write(batch)
	}
	if werr == nil && l.fault != nil {
		werr = l.fault.BeforeWALSync()
	}
	if werr == nil {
		werr = l.f.Sync()
	}

	l.mu.Lock()
	if werr != nil {
		l.fail(werr)
	} else {
		l.fsyncs++
		// A Reset that raced this flush truncated the batch's bytes away
		// (they were checkpoint-covered); counting them would point
		// CheckIntegrity's horizon past the truncated end of the file.
		if gen == l.resetGen {
			l.durableBytes += int64(len(batch))
		}
		if upto > l.durable {
			l.durable = upto
		}
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// CheckIntegrity re-reads the log's durable prefix from disk and verifies
// every frame's structure and CRC, returning the number of intact records.
// Bytes past the durable horizon (appended but not yet fsynced) are not
// inspected: a tear there is the normal crash contract, a tear below it is
// bit rot and reported wrapping ErrCorrupt. The read uses positioned I/O on
// a stable prefix (appends go strictly past it; only Reset shrinks it, and
// Reset holds the same lock), so the committer is never blocked by more
// than this one scan.
func (l *Log) CheckIntegrity() (records int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	hdr := make([]byte, headerLen)
	if _, err := l.f.ReadAt(hdr, 0); err != nil {
		return 0, fmt.Errorf("%w: reading header: %w", ErrCorrupt, err)
	}
	if string(hdr[:5]) != magic || hdr[5] != walVersion {
		return 0, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if got := int(binary.LittleEndian.Uint32(hdr[6:])); got != l.dim {
		return 0, fmt.Errorf("%w: log dimension %d, tree dimension %d", ErrCorrupt, got, l.dim)
	}
	if l.durableBytes == 0 {
		return 0, nil
	}
	buf := make([]byte, l.durableBytes)
	if _, err := l.f.ReadAt(buf, headerLen); err != nil {
		return 0, fmt.Errorf("%w: reading durable prefix: %w", ErrCorrupt, err)
	}
	recs, intact := scanRecords(buf, l.dim)
	if int64(intact) < l.durableBytes {
		return len(recs), fmt.Errorf("%w: frame at byte %d is corrupt below the durable horizon (%d bytes)",
			ErrCorrupt, headerLen+intact, l.durableBytes)
	}
	return len(recs), nil
}
