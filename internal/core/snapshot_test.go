package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree/internal/fault"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/wal"
)

// newWALTree builds a file-backed tree with an attached write-ahead log in
// dir, returning the tree, its manager and log for explicit lifecycle
// control (the core layer has no Close — the public façade owns that).
func newWALTree(t *testing.T, dir string, dim int) (*Tree, *pagefile.Manager, *wal.Log) {
	t.Helper()
	fb, err := pagefile.CreateFile(filepath.Join(dir, "tree.db"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pagefile.NewManager(fb, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, dim, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Create(filepath.Join(dir, "tree.wal"), dim, wal.Options{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetWAL(l); err != nil {
		t.Fatal(err)
	}
	return tr, mgr, l
}

// reopenWALTree is the full crash-recovery open path: reattach the page
// file, replay the log tail, rearm the log.
func reopenWALTree(t *testing.T, dir string, dim int) (*Tree, *pagefile.Manager, *wal.Log) {
	t.Helper()
	tr, mgr := openFileTree(t, filepath.Join(dir, "tree.db"))
	l, tail, err := wal.Open(filepath.Join(dir, "tree.wal"), dim, tr.AppliedLSN(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ApplyWALTail(tail); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetWAL(l); err != nil {
		t.Fatal(err)
	}
	return tr, mgr, l
}

// TestWALReplayRecoversAckedMutations closes the storage without any
// checkpoint — the meta record still describes the empty tree — and
// requires replay to reconstruct every acknowledged insert and delete.
func TestWALReplayRecoversAckedMutations(t *testing.T) {
	dir := t.TempDir()
	tr, mgr, l := newWALTree(t, dir, 2)
	rng := rand.New(rand.NewSource(7))
	vs := clusteredVectors(rng, 120, 2, 3)
	for _, v := range vs {
		if err := tr.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range vs[:20] {
		if ok, err := tr.Delete(v); err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
	}
	if err := tr.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	want := vectorSet(t, tr)
	if tr.AppliedLSN() != 0 {
		t.Fatalf("appliedLSN = %d before any checkpoint, want 0", tr.AppliedLSN())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	tr2, mgr2, l2 := reopenWALTree(t, dir, 2)
	defer mgr2.Close()
	defer l2.Close()
	if got := vectorSet(t, tr2); !sameVectorSet(got, want) {
		t.Fatal("replayed tree does not match the acknowledged state")
	}
	if tr2.Len() != len(vs)-20 {
		t.Fatalf("Len = %d, want %d", tr2.Len(), len(vs)-20)
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Replay folded the tail into the meta record and truncated the log:
	// a second reopen must see the same tree with nothing left to replay.
	if tr2.AppliedLSN() == 0 {
		t.Fatal("replay did not commit a covering checkpoint")
	}
}

// TestWALCheckpointInterval drives enough single inserts to cross the
// checkpoint threshold and verifies the log is truncated and the meta
// record advanced, bounding recovery replay work.
func TestWALCheckpointInterval(t *testing.T) {
	dir := t.TempDir()
	tr, mgr, l := newWALTree(t, dir, 2)
	defer mgr.Close()
	defer l.Close()
	rng := rand.New(rand.NewSource(8))
	vs := clusteredVectors(rng, walCheckpointInterval+50, 2, 3)
	for _, v := range vs {
		if err := tr.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.AppliedLSN(); got != walCheckpointInterval {
		t.Fatalf("appliedLSN = %d, want %d (one interval checkpoint)", got, walCheckpointInterval)
	}
	if s := l.Stats(); s.DurableLSN < uint64(walCheckpointInterval) {
		t.Fatalf("durable LSN %d below checkpoint %d", s.DurableLSN, walCheckpointInterval)
	}
}

// TestInsertAllDurablePrefix is the recovery half of the batch contract (the
// durable count itself is the façade's, tested there): a storage fault kills
// the batch mid-way, InsertAll names the prefix it applied, and once the log
// has been awaited a reopen replays exactly that prefix — every applied
// insert was logged by the same seal a single Insert goes through.
func TestInsertAllDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	fb, err := pagefile.CreateFile(filepath.Join(dir, "tree.db"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	writeBudget(t, inj, 200, false)
	mgr, err := pagefile.NewManager(fault.WrapBackend(fb, inj), 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Create(filepath.Join(dir, "tree.wal"), 2, wal.Options{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetWAL(l); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	vs := clusteredVectors(rng, 1000, 2, 4)
	n, err := tr.InsertAll(vs)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n <= 0 || n >= len(vs) {
		t.Fatalf("applied count = %d, want a proper prefix of %d", n, len(vs))
	}
	if err := tr.WaitDurable(); err != nil {
		t.Fatalf("the log outlives a page fault: WaitDurable = %v", err)
	}
	l.Close()
	mgr.Close()

	tr2, mgr2, l2 := reopenWALTree(t, dir, 2)
	defer mgr2.Close()
	defer l2.Close()
	if tr2.Len() != n {
		t.Fatalf("recovered %d vectors, InsertAll reported %d applied", tr2.Len(), n)
	}
	want := map[string]int{}
	for _, v := range vs[:n] {
		want[string(pfv.AppendBinary(nil, v))]++
	}
	if got := vectorSet(t, tr2); !sameVectorSet(got, want) {
		t.Fatal("recovered set is not the reported applied prefix")
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplaceSwapsVector exercises the merge-ingest engine hook: one
// logical record, one publish, count unchanged.
func TestReplaceSwapsVector(t *testing.T) {
	tr := newTree(t, 2, 1024, Config{})
	rng := rand.New(rand.NewSource(10))
	vs := clusteredVectors(rng, 80, 2, 2)
	if _, err := tr.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	old := vs[37]
	merged := pfv.MustNew(old.ID, []float64{old.Mean[0] + 0.1, old.Mean[1] - 0.1}, []float64{old.Sigma[0] * 1.1, old.Sigma[1]})
	ok, err := tr.Replace(old, merged)
	if err != nil || !ok {
		t.Fatalf("Replace = (%v, %v), want (true, nil)", ok, err)
	}
	if tr.Len() != len(vs) {
		t.Fatalf("Len = %d after Replace, want %d", tr.Len(), len(vs))
	}
	set := vectorSet(t, tr)
	if set[string(pfv.AppendBinary(nil, old))] != 0 {
		t.Fatal("old vector still stored after Replace")
	}
	if set[string(pfv.AppendBinary(nil, merged))] != 1 {
		t.Fatal("merged vector not stored after Replace")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Replacing a vector that is not stored reports false and stays clean.
	ghost := pfv.MustNew(9999, []float64{1, 2}, []float64{1, 1})
	if ok, err := tr.Replace(ghost, merged); err != nil || ok {
		t.Fatalf("Replace(ghost) = (%v, %v), want (false, nil)", ok, err)
	}
}

// TestApplyWALTailSkipsAppliedRecords feeds replay a tail overlapping the
// checkpoint horizon: records at or below appliedLSN must be ignored
// (replaying them would double-apply mutations).
func TestApplyWALTailSkipsAppliedRecords(t *testing.T) {
	tr := newTree(t, 2, 1024, Config{})
	a := pfv.MustNew(1, []float64{1, 1}, []float64{1, 1})
	b := pfv.MustNew(2, []float64{2, 2}, []float64{1, 1})
	if err := tr.Insert(a); err != nil {
		t.Fatal(err)
	}
	// Pretend the tree's checkpoint already covers LSN 5.
	tr.appliedLSN = 5
	tail := []wal.Record{
		{LSN: 4, Type: wal.RecInsert, Vectors: []pfv.Vector{b}}, // stale: skip
		{LSN: 5, Type: wal.RecDelete, Vectors: []pfv.Vector{a}}, // stale: skip
		{LSN: 6, Type: wal.RecInsert, Vectors: []pfv.Vector{b}},
		{LSN: 7, Type: wal.RecMerge, Vectors: []pfv.Vector{b, pfv.MustNew(2, []float64{3, 3}, []float64{1, 1})}},
	}
	if err := tr.ApplyWALTail(tail); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (a kept, b inserted then merged in place)", tr.Len())
	}
	if tr.AppliedLSN() != 7 {
		t.Fatalf("appliedLSN = %d, want 7", tr.AppliedLSN())
	}
	set := vectorSet(t, tr)
	if set[string(pfv.AppendBinary(nil, a))] != 1 {
		t.Fatal("stale delete was replayed")
	}
	if set[string(pfv.AppendBinary(nil, b))] != 0 {
		t.Fatal("merge was not replayed")
	}
}

// TestSnapshotEpochAdvancesPerCommit pins the write-progress counter the
// serving layer exposes.
func TestSnapshotEpochAdvancesPerCommit(t *testing.T) {
	tr := newTree(t, 2, 1024, Config{})
	before := tr.SnapshotEpoch()
	for i := 0; i < 5; i++ {
		if err := tr.Insert(pfv.MustNew(uint64(i), []float64{float64(i), 0}, []float64{1, 1})); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.SnapshotEpoch(); got != before+5 {
		t.Fatalf("SnapshotEpoch advanced %d over 5 inserts, want 5", got-before)
	}
}

// TestWALTornTailRecovery truncates the log mid-record after a crash and
// requires recovery to land on the longest intact prefix.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	tr, mgr, l := newWALTree(t, dir, 2)
	rng := rand.New(rand.NewSource(11))
	vs := clusteredVectors(rng, 40, 2, 2)
	for _, v := range vs {
		if err := tr.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	mgr.Close()

	// Tear the last record: chop a few bytes off the log tail.
	walPath := filepath.Join(dir, "tree.wal")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	tr2, mgr2, l2 := reopenWALTree(t, dir, 2)
	defer mgr2.Close()
	defer l2.Close()
	if tr2.Len() != len(vs)-1 {
		t.Fatalf("recovered %d vectors after torn tail, want %d", tr2.Len(), len(vs)-1)
	}
	want := map[string]int{}
	for _, v := range vs[:len(vs)-1] {
		want[string(pfv.AppendBinary(nil, v))]++
	}
	if got := vectorSet(t, tr2); !sameVectorSet(got, want) {
		t.Fatal("torn-tail recovery is not the intact prefix")
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
