package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// stubFault fails the committer's write or sync on demand.
type stubFault struct {
	writeErr error
	syncErr  error
}

func (s *stubFault) BeforeWALWrite() error { return s.writeErr }
func (s *stubFault) BeforeWALSync() error  { return s.syncErr }

func intVec(dim int, id uint64) pfv.Vector {
	v := pfv.Vector{ID: id, Mean: make([]float64, dim), Sigma: make([]float64, dim)}
	for i := range v.Mean {
		v.Mean[i] = float64(id) + float64(i)
		v.Sigma[i] = 0.5
	}
	return v
}

func TestCheckIntegrityCleanLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, err := Create(path, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if n, err := l.CheckIntegrity(); err != nil || n != 0 {
		t.Fatalf("empty log: records=%d err=%v", n, err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(RecInsert, intVec(2, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitDurable(l.Stats().AppendedLSN); err != nil {
		t.Fatal(err)
	}
	if n, err := l.CheckIntegrity(); err != nil || n != 5 {
		t.Fatalf("after 5 durable records: records=%d err=%v", n, err)
	}
	// Reset (checkpoint) moves the horizon back to zero.
	if err := l.Reset(5); err != nil {
		t.Fatal(err)
	}
	if n, err := l.CheckIntegrity(); err != nil || n != 0 {
		t.Fatalf("after reset: records=%d err=%v", n, err)
	}
}

func TestCheckIntegritySurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, err := Create(path, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(RecInsert, intVec(2, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitDurable(l.Stats().AppendedLSN); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := Open(path, 2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	// The reopened log's horizon covers the replayed prefix.
	if n, err := l2.CheckIntegrity(); err != nil || n != 3 {
		t.Fatalf("after reopen: records=%d err=%v", n, err)
	}
}

func TestCheckIntegrityDetectsBitRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, err := Create(path, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		if _, err := l.Append(RecInsert, intVec(2, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitDurable(l.Stats().AppendedLSN); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first durable frame, behind the log's back.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, headerLen+6); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := l.CheckIntegrity(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for bit rot below the durable horizon, got %v", err)
	}
}

func TestInjectedWriteFaultFailsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	hook := &stubFault{}
	l, err := Create(path, 2, Options{Fault: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// A clean append first, so the log demonstrably worked.
	lsn, err := l.Append(RecInsert, intVec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}

	hook.syncErr = errors.New("injected fsync failure")
	lsn, err = l.Append(RecInsert, intVec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); !errors.Is(err, ErrFailed) {
		t.Fatalf("want ErrFailed after injected fsync fault, got %v", err)
	}
	// The sticky error keeps wrapping ErrFailed for every later call.
	if _, err := l.Append(RecInsert, intVec(2, 3)); !errors.Is(err, ErrFailed) {
		t.Fatalf("append on failed log: want ErrFailed, got %v", err)
	}
	if _, err := l.CheckIntegrity(); !errors.Is(err, ErrFailed) {
		t.Fatalf("integrity check on failed log: want ErrFailed, got %v", err)
	}
}
