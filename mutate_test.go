package gausstree_test

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree"
)

// mutable is what Tree and Sharded share of the write path.
type mutable interface {
	Insert(gausstree.Vector) error
	InsertAll([]gausstree.Vector) (int, error)
	WALStats() (gausstree.WALStats, bool)
	ForEach(func(gausstree.Vector) error) error
	CheckInvariants() error
	Len() int
	Close() error
}

// fileBacked lists the two file-backed index layouts: how to create each in
// dir and how to reopen a copy of it.
var fileBacked = []struct {
	name   string
	create func(dir string, o gausstree.Options) (mutable, string, error)
	open   func(path string) (mutable, error)
}{
	{"tree",
		func(dir string, o gausstree.Options) (mutable, string, error) {
			o.Path = filepath.Join(dir, "live.gtree")
			tr, err := gausstree.New(2, o)
			return tr, o.Path, err
		},
		func(path string) (mutable, error) { return gausstree.Open(path) }},
	{"sharded-4",
		func(dir string, o gausstree.Options) (mutable, string, error) {
			o.Path = filepath.Join(dir, "live")
			s, err := gausstree.NewSharded(2, 4, o)
			return s, o.Path, err
		},
		func(path string) (mutable, error) { return gausstree.OpenSharded(path) }},
}

// crashCopy freezes the disk of a live index as a crash would leave it — no
// Close, no checkpoint — and returns the copy's path: the page file and its
// log for a Tree, the whole directory for a Sharded.
func crashCopy(t *testing.T, path string) string {
	t.Helper()
	snap := filepath.Join(t.TempDir(), filepath.Base(path))
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if !fi.IsDir() {
		copyFile(t, path, snap)
		copyFile(t, path+".wal", snap+".wal")
		return snap
	}
	if err := os.MkdirAll(snap, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		copyFile(t, filepath.Join(path, f.Name()), filepath.Join(snap, f.Name()))
	}
	return snap
}

// storedIDs returns how many copies of each id the index holds.
func storedIDs(t *testing.T, x mutable) map[uint64]int {
	t.Helper()
	ids := map[uint64]int{}
	if err := x.ForEach(func(v gausstree.Vector) error {
		ids[v.ID]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestGroupCommitReachesInsertAll is the write path's one-path contract seen
// from outside: a mutation awaits its group commit after releasing the writer
// lock whichever façade method made it, so concurrent one-vector InsertAll
// calls — all the daemon's /v1/insert ever issues — share fsyncs the way
// concurrent Insert calls do. With the wait under the lock every record is a
// group of its own: 640 fsyncs for 640 inserts, MeanGroupSize 1.00.
func TestGroupCommitReachesInsertAll(t *testing.T) {
	const writers, each = 32, 20
	for _, layout := range fileBacked {
		t.Run(layout.name, func(t *testing.T) {
			// A window long enough for every writer to get its turn at the lock
			// even under the race detector; four shards split the 32 writers
			// over four logs, so their groups cannot exceed 8.
			x, path, err := layout.create(t.TempDir(), gausstree.Options{PageSize: 1024, CommitLatency: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if n, err := x.InsertAll([]gausstree.Vector{seqVector(w*each + i)}); n != 1 || err != nil {
							t.Errorf("writer %d: InsertAll = (%d, %v), want (1, nil)", w, n, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			ws, ok := x.WALStats()
			if !ok {
				t.Fatal("a file-backed index reports no WAL")
			}
			if ws.Records != writers*each {
				t.Fatalf("logged %d records, want %d", ws.Records, writers*each)
			}
			if ws.MeanGroupSize < 4 || ws.Fsyncs > writers*each/4 {
				t.Fatalf("%d fsyncs for %d inserts (mean group size %.2f): concurrent InsertAll calls do not share group commits",
					ws.Fsyncs, ws.Records, ws.MeanGroupSize)
			}
			t.Logf("%d inserts, %d fsyncs, mean group size %.1f", ws.Records, ws.Fsyncs, ws.MeanGroupSize)

			re, err := layout.open(crashCopy(t, path))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			ids := storedIDs(t, re)
			for id := uint64(1); id <= writers*each; id++ {
				if ids[id] != 1 {
					t.Fatalf("acknowledged id %d is stored %d times after a crash", id, ids[id])
				}
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSequentialWriterPaysOneFsyncEach is the other side: with nobody to
// share with, every acknowledged mutation is a group of one.
func TestSequentialWriterPaysOneFsyncEach(t *testing.T) {
	x, _, err := fileBacked[0].create(t.TempDir(), gausstree.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			err = x.Insert(seqVector(i))
		} else {
			_, err = x.InsertAll([]gausstree.Vector{seqVector(i)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if ws, _ := x.WALStats(); ws.Fsyncs != 50 || ws.MeanGroupSize != 1 {
		t.Fatalf("%d fsyncs, mean group size %.2f for 50 sequential mutations, want 50 and 1.00", ws.Fsyncs, ws.MeanGroupSize)
	}
}

// batchOf returns n vectors with ids from..from+n-1 (seqVector's).
func batchOf(from, n int) []gausstree.Vector {
	vs := make([]gausstree.Vector, n)
	for i := range vs {
		vs[i] = seqVector(from + i)
	}
	return vs
}

// TestInsertAllDurableCount pins InsertAll's (n, err) contract where it lives,
// at the façade: when storage dies mid-batch, n counts exactly what a crash
// right now would leave of the batch — on a Tree the prefix vs[:n], on a
// Sharded the union of each shard's prefix of its own group.
func TestInsertAllDurableCount(t *testing.T) {
	const before, batch = 40, 1000
	for _, layout := range fileBacked {
		t.Run(layout.name, func(t *testing.T) {
			inj := gausstree.NewFaultInjector()
			x, path, err := layout.create(t.TempDir(), gausstree.Options{PageSize: 1024, Fault: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			if n, err := x.InsertAll(batchOf(0, before)); n != before || err != nil {
				t.Fatalf("InsertAll on healthy storage = (%d, %v), want (%d, nil)", n, err, before)
			}
			// A page-write budget that runs out mid-batch; the log stays healthy,
			// so everything applied before the fault gets its group commit.
			if err := inj.Arm(gausstree.FaultSchedule{Ops: map[gausstree.FaultOp]gausstree.FaultRule{
				gausstree.FaultOpPageWrite: {After: 200},
			}}); err != nil {
				t.Fatal(err)
			}
			vs := batchOf(before, batch)
			n, err := x.InsertAll(vs)
			if !errors.Is(err, gausstree.ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			if n <= 0 || n >= batch {
				t.Fatalf("durable count = %d, want a proper part of %d", n, batch)
			}
			if _, err := x.InsertAll(batchOf(before+batch, 1)); !errors.Is(err, gausstree.ErrPoisoned) {
				t.Fatalf("mutation after a failed batch: err = %v, want ErrPoisoned", err)
			}

			re, err := layout.open(crashCopy(t, path))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Len(); got != before+n {
				t.Fatalf("a crash leaves %d vectors, InsertAll reported %d+%d durable", got, before, n)
			}
			ids := storedIDs(t, re)
			if layout.name == "tree" {
				for _, v := range vs[:n] {
					if ids[v.ID] != 1 {
						t.Fatalf("id %d of the durable prefix vs[:%d] is stored %d times after a crash", v.ID, n, ids[v.ID])
					}
				}
			}
			for id, copies := range ids {
				if copies != 1 || id > before+batch {
					t.Fatalf("a crash leaves %d copies of id %d", copies, id)
				}
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInsertAllDurableCountOnDeadLog kills the log's fsync instead: records
// written but never fsynced may or may not survive, so the count is a lower
// bound — everything it names is there after a crash.
func TestInsertAllDurableCountOnDeadLog(t *testing.T) {
	const batch = 1000
	inj := gausstree.NewFaultInjector()
	x, path, err := fileBacked[0].create(t.TempDir(), gausstree.Options{
		PageSize: 1024, Fault: inj, CommitLatency: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := inj.Arm(gausstree.FaultSchedule{Ops: map[gausstree.FaultOp]gausstree.FaultRule{
		gausstree.FaultOpWALSync: {After: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	vs := batchOf(0, batch)
	n, err := x.InsertAll(vs)
	if !errors.Is(err, gausstree.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n <= 0 || n >= batch {
		t.Fatalf("durable count = %d, want a proper prefix of %d (two group commits succeed)", n, batch)
	}
	if err := x.Insert(seqVector(batch)); !errors.Is(err, gausstree.ErrPoisoned) {
		t.Fatalf("mutation after the log died: err = %v, want ErrPoisoned", err)
	}
	re, err := fileBacked[0].open(crashCopy(t, path))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ids := storedIDs(t, re)
	for _, v := range vs[:n] {
		if ids[v.ID] != 1 {
			t.Fatalf("id %d of the durable prefix vs[:%d] is stored %d times after a crash", v.ID, n, ids[v.ID])
		}
	}
	if got := re.Len(); got < n || got > batch {
		t.Fatalf("a crash leaves %d vectors of a batch of %d reported %d durable", got, batch, n)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
