package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

func testVec(id uint64, dim int, base float64) pfv.Vector {
	mean := make([]float64, dim)
	sigma := make([]float64, dim)
	for i := range mean {
		mean[i] = base + float64(i)
		sigma[i] = 0.5 + float64(i)*0.25
	}
	return pfv.MustNew(id, mean, sigma)
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Create(path, 3, Options{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for i := 0; i < 10; i++ {
		typ := RecInsert
		vecs := []pfv.Vector{testVec(uint64(i), 3, float64(i))}
		switch i % 3 {
		case 1:
			typ = RecDelete
		case 2:
			typ = RecMerge
			vecs = append(vecs, testVec(uint64(i), 3, float64(i)+0.5))
		}
		lsn, err := l.Append(typ, vecs...)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] != lsns[i-1]+1 {
			t.Fatalf("LSNs not consecutive: %v", lsns)
		}
	}
	if err := l.WaitDurable(l.Stats().AppendedLSN); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Open(path, 3, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.LSN != lsns[i] {
			t.Errorf("record %d LSN %d, want %d", i, r.LSN, lsns[i])
		}
		want := 1
		if r.Type == RecMerge {
			want = 2
		}
		if len(r.Vectors) != want {
			t.Errorf("record %d carries %d vectors, want %d", i, len(r.Vectors), want)
		}
		if r.Vectors[0].ID != uint64(i) {
			t.Errorf("record %d vector id %d, want %d", i, r.Vectors[0].ID, i)
		}
	}
	// The next LSN continues past the replayed tail.
	if lsn, err := l2.Append(RecInsert, testVec(99, 3, 1)); err != nil || lsn != lsns[len(lsns)-1]+1 {
		t.Fatalf("post-replay Append = (%d, %v), want (%d, nil)", lsn, err, lsns[len(lsns)-1]+1)
	}
}

func TestWaitDurableUnblocksGroup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Create(path, 2, Options{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lsn, err := l.Append(RecInsert, testVec(uint64(w*100+i), 2, 0))
				if err == nil {
					err = l.WaitDurable(lsn)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	s := l.Stats()
	if s.Records != writers*20 {
		t.Fatalf("records = %d, want %d", s.Records, writers*20)
	}
	if s.Fsyncs == 0 || s.Fsyncs > s.Records {
		t.Fatalf("fsyncs = %d out of range (0, %d]", s.Fsyncs, s.Records)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Create(path, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(RecInsert, testVec(uint64(i), 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitDurable(l.Stats().AppendedLSN); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"torn mid-frame": func(b []byte) []byte { return b[:len(b)-7] },
		"garbage tail":   func(b []byte) []byte { return append(append([]byte{}, b...), 0xde, 0xad, 0xbe, 0xef, 1, 2, 3) },
		"flipped bit in last frame": func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[len(c)-10] ^= 0x40
			return c
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "m.wal")
			if err := os.WriteFile(p, mutate(intact), 0o644); err != nil {
				t.Fatal(err)
			}
			l2, recs, err := Open(p, 2, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			// The torn/corrupt tail loses at most the last record; every
			// earlier record survives verbatim.
			if len(recs) < 4 || len(recs) > 5 {
				t.Fatalf("replayed %d records, want 4 or 5", len(recs))
			}
			for i, r := range recs {
				if r.LSN != uint64(i+1) || r.Vectors[0].ID != uint64(i) {
					t.Fatalf("record %d = LSN %d id %d", i, r.LSN, r.Vectors[0].ID)
				}
			}
			// Open truncated the file back to its intact prefix: a re-open
			// replays identically.
			l3, recs2, err := Open(p, 2, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l3.Close()
			if len(recs2) != len(recs) {
				t.Fatalf("second open replayed %d records, first %d", len(recs2), len(recs))
			}
		})
	}
}

func TestResetTruncatesAndSatisfiesWaiters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Create(path, 2, Options{Interval: time.Hour}) // effectively never auto-flush
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < 4; i++ {
		if last, err = l.Append(RecInsert, testVec(uint64(i), 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint covering every appended record makes them all durable
	// without any log fsync.
	if err := l.Reset(last); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(last) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable blocked after Reset")
	}
	if info, err := os.Stat(path); err != nil || info.Size() != headerLen {
		t.Fatalf("file size after Reset = %d (err %v), want %d", info.Size(), err, headerLen)
	}
	// LSNs remain monotone across the truncation.
	if lsn, err := l.Append(RecInsert, testVec(9, 2, 0)); err != nil || lsn != last+1 {
		t.Fatalf("post-Reset Append = (%d, %v), want (%d, nil)", lsn, err, last+1)
	}
}

func TestOpenSeedsLSNFromAppliedLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(path, 2, 42, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if lsn, err := l.Append(RecInsert, testVec(1, 2, 0)); err != nil || lsn != 43 {
		t.Fatalf("Append = (%d, %v), want (43, nil)", lsn, err)
	}
}

func TestOpenRejectsBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL-GARBAGE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, 2, 0, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// Dimension mismatch is corruption too: replaying 3-dim records into a
	// 2-dim tree would fabricate vectors.
	good := filepath.Join(t.TempDir(), "good.wal")
	l, err := Create(good, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, err := Open(good, 2, 0, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dim mismatch err = %v, want ErrCorrupt", err)
	}
}

// TestCloseFlushesPending: Close flushes what is pending and returns at
// once, also when the committer has already taken the record's kick and sits
// in its group-commit window (an hour here; Close used to wait it out).
func TestCloseFlushesPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Create(path, 2, Options{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecInsert, testVec(7, 2, 0)); err != nil {
		t.Fatal(err)
	}
	// Let the committer reach its window; Close must pass in either order.
	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close is waiting out the group-commit window")
	}
	_, recs, err := Open(path, 2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Vectors[0].ID != 7 {
		t.Fatalf("replay after Close = %+v, want the one pending record", recs)
	}
}

// FuzzWALRecord fuzzes the frame decoder with arbitrary bytes: it must
// never panic, and any frame it accepts must re-encode byte-identically
// (the encoding is canonical, so decode∘encode is the identity on valid
// frames — this pins CRC coverage, length validation and type/count rules).
func FuzzWALRecord(f *testing.F) {
	const dim = 2
	seed := AppendRecord(nil, Record{LSN: 1, Type: RecInsert, Vectors: []pfv.Vector{testVec(1, dim, 0)}}, dim)
	f.Add(seed)
	f.Add(AppendRecord(seed, Record{LSN: 2, Type: RecMerge, Vectors: []pfv.Vector{testVec(2, dim, 0), testVec(2, dim, 1)}}, dim))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, ok := decodeFrame(data, dim)
		if !ok {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(data))
		}
		re := AppendRecord(nil, rec, dim)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
		// scanRecords over the same data must agree on the first frame and
		// must terminate.
		recs, intact := scanRecords(data, dim)
		if len(recs) == 0 || recs[0].LSN != rec.LSN || intact < n {
			t.Fatalf("scanRecords disagrees with decodeFrame: %d recs, intact %d", len(recs), intact)
		}
	})
}
