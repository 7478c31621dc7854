package core

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/gauss-tree/gausstree/internal/fault"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// writeBudget arms inj so that the next allow page writes succeed and every
// later one fails (torn: leaving a half-applied page behind). Rule.After
// means "past the first n", so an immediate failure is Prob 1 instead.
func writeBudget(t testing.TB, inj *fault.Injector, allow int, torn bool) {
	t.Helper()
	rule := fault.Rule{After: allow, Torn: torn}
	if allow == 0 {
		rule = fault.Rule{Prob: 1, Torn: torn}
	}
	armFault(t, inj, fault.OpPageWrite, rule)
}

// failMeta arms inj to fail every meta write while page writes pass: a
// mutation's data pages land but its commit is lost.
func failMeta(t testing.TB, inj *fault.Injector) {
	t.Helper()
	armFault(t, inj, fault.OpMetaWrite, fault.Rule{Prob: 1})
}

func armFault(t testing.TB, inj *fault.Injector, op fault.Op, rule fault.Rule) {
	t.Helper()
	if err := inj.Arm(fault.Schedule{Seed: 1, Ops: map[fault.Op]fault.Rule{op: rule}}); err != nil {
		t.Fatal(err)
	}
}

// openFileTree reattaches the committed tree at path, as a restarted
// process would.
func openFileTree(t *testing.T, path string) (*Tree, *pagefile.Manager) {
	t.Helper()
	fb, err := pagefile.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pagefile.NewManager(fb, fb.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(mgr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, mgr
}

// vectorSet is a multiset fingerprint of a tree's contents for equality
// checks across reopen.
func vectorSet(t *testing.T, tr *Tree) map[string]int {
	t.Helper()
	set := map[string]int{}
	if err := tr.ForEach(func(v pfv.Vector) error {
		set[string(pfv.AppendBinary(nil, v))]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return set
}

func sameVectorSet(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestFileReopenAfterMutations drives a mixed insert/delete/bulk-load
// workload against a file-backed tree, closes it, reopens, and requires the
// identical tree: geometry, contents, invariants and query answers.
func TestFileReopenAfterMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	fb, err := pagefile.CreateFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pagefile.NewManager(fb, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, 2, Config{Combiner: gaussian.CombineConvolution, Split: SplitVolume})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	vs := clusteredVectors(rng, 300, 2, 4)
	if err := tr.BulkLoad(vs[:200]); err != nil {
		t.Fatal(err)
	}
	for _, v := range vs[200:] {
		if err := tr.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range vs[:40] {
		if ok, err := tr.Delete(v); err != nil || !ok {
			t.Fatalf("delete: ok=%v err=%v", ok, err)
		}
	}
	wantLen, wantHeight := tr.Len(), tr.Height()
	wantSet := vectorSet(t, tr)
	q := vs[123].Clone()
	q.ID = 0
	wantRes, _, err := tr.KMLIQRanked(context.Background(), q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	re, mgr2 := openFileTree(t, path)
	defer mgr2.Close()
	if re.Len() != wantLen || re.Height() != wantHeight || re.Dim() != 2 {
		t.Errorf("reopened Len/Height/Dim = %d/%d/%d, want %d/%d/2",
			re.Len(), re.Height(), re.Dim(), wantLen, wantHeight)
	}
	if re.Config().Combiner != gaussian.CombineConvolution || re.Config().Split != SplitVolume {
		t.Errorf("reopened config = %+v not persisted", re.Config())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Errorf("reopened invariants: %v", err)
	}
	if !sameVectorSet(wantSet, vectorSet(t, re)) {
		t.Error("reopened tree holds a different vector multiset")
	}
	gotRes, _, err := re.KMLIQRanked(context.Background(), q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRes) != len(wantRes) {
		t.Fatalf("reopened query returned %d results, want %d", len(gotRes), len(wantRes))
	}
	for i := range wantRes {
		if gotRes[i].Vector.ID != wantRes[i].Vector.ID || gotRes[i].LogDensity != wantRes[i].LogDensity {
			t.Errorf("result %d: got (%d, %v), want (%d, %v)", i,
				gotRes[i].Vector.ID, gotRes[i].LogDensity, wantRes[i].Vector.ID, wantRes[i].LogDensity)
		}
	}

	// A reopened tree keeps mutating durably.
	extra := pfv.MustNew(9999, []float64{0.5, 0.5}, []float64{0.1, 0.1})
	if err := re.Insert(extra); err != nil {
		t.Fatal(err)
	}
	mgr2.Close()
	re2, mgr3 := openFileTree(t, path)
	defer mgr3.Close()
	if re2.Len() != wantLen+1 {
		t.Errorf("after reopened insert Len = %d, want %d", re2.Len(), wantLen+1)
	}
	if err := re2.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestFailedMutationPoisonsTree: after a mid-mutation error the tree must
// refuse further mutations — a later successful commit would durably
// promote pages the on-disk tree may still reference. Validation errors
// (wrong dimension) must NOT poison. Reopening recovers a mutable tree.
func TestFailedMutationPoisonsTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.db")
	fb, err := pagefile.CreateFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	mgr, err := pagefile.NewManager(fault.WrapBackend(fb, inj), 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := pfv.MustNew(1, []float64{1, 2}, []float64{0.1, 0.1})
	if err := tr.Insert(good); err != nil {
		t.Fatal(err)
	}
	// A validation failure touches no pages and must not poison.
	if err := tr.Insert(pfv.MustNew(2, []float64{1}, []float64{0.1})); !errors.Is(err, ErrDimension) {
		t.Fatalf("dimension error = %v", err)
	}
	if err := tr.Insert(pfv.MustNew(3, []float64{5, 6}, []float64{0.2, 0.2})); err != nil {
		t.Fatalf("insert after validation error: %v", err)
	}

	// A mid-mutation failure must poison every further mutation.
	writeBudget(t, inj, 0, false)
	if err := tr.Insert(pfv.MustNew(4, []float64{7, 8}, []float64{0.3, 0.3})); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted insert error = %v", err)
	}
	inj.Disarm() // the fault is gone, the poison must remain
	if err := tr.Insert(good); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("insert on poisoned tree = %v, want the poisoning error", err)
	}
	if _, err := tr.Delete(good); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("delete on poisoned tree = %v, want the poisoning error", err)
	}
	if _, err := tr.InsertAll([]pfv.Vector{good}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("batch on poisoned tree = %v, want the poisoning error", err)
	}
	mgr.Close()

	// Reopening recovers the last committed state, mutable again.
	re, mgr2 := openFileTree(t, path)
	defer mgr2.Close()
	if re.Len() != 2 {
		t.Errorf("recovered Len = %d, want 2", re.Len())
	}
	if err := re.Insert(pfv.MustNew(5, []float64{9, 9}, []float64{0.4, 0.4})); err != nil {
		t.Fatalf("insert after reopen: %v", err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNewRejectsCommittedStore(t *testing.T) {
	mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(512), 512)
	if _, err := New(mgr, 2, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(mgr, 2, Config{}); err == nil {
		t.Error("New over a committed index should be rejected")
	}
}

func TestOpenWithoutIndex(t *testing.T) {
	mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(512), 512)
	if _, err := Open(mgr); !errors.Is(err, ErrNoIndex) {
		t.Errorf("Open of empty store = %v, want ErrNoIndex", err)
	}
}

// crashWorld builds a file-backed tree behind the fault layer, runs inserts
// until the injected fault fires, simulates the crash by discarding the
// process state, and returns the path plus how many inserts fully committed.
func crashWorld(t *testing.T, torn bool, budget int) (path string, committed int, vs []pfv.Vector) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "crash.db")
	fb, err := pagefile.CreateFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	writeBudget(t, inj, budget, torn)
	mgr, err := pagefile.NewManager(fault.WrapBackend(fb, inj), 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	vs = clusteredVectors(rng, 500, 3, 5)
	for _, v := range vs {
		if err := tr.Insert(v); err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("insert failed with %v, want injected fault", err)
			}
			break
		}
		committed++
	}
	if committed == len(vs) {
		t.Fatal("fault never fired; raise the workload or lower the budget")
	}
	// The "crash": drop all in-memory state, close the file handle without
	// any further writes.
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	return path, committed, vs
}

// TestCrashMidInsertRecovers simulates a crash mid-insert (a page write
// fails fail-stop after N successful writes) and verifies Open lands on the
// last committed state with intact invariants and contents.
func TestCrashMidInsertRecovers(t *testing.T) {
	for _, torn := range []bool{false, true} {
		name := "failstop"
		if torn {
			name = "torn"
		}
		t.Run(name, func(t *testing.T) {
			path, committed, vs := crashWorld(t, torn, 700)
			re, mgr := openFileTree(t, path)
			defer mgr.Close()
			if re.Len() != committed {
				t.Errorf("recovered Len = %d, want %d (last committed insert)", re.Len(), committed)
			}
			if err := re.CheckInvariants(); err != nil {
				t.Errorf("recovered invariants: %v", err)
			}
			set := vectorSet(t, re)
			want := map[string]int{}
			for _, v := range vs[:committed] {
				want[string(pfv.AppendBinary(nil, v))]++
			}
			if !sameVectorSet(want, set) {
				t.Error("recovered contents differ from the last committed prefix")
			}
			// Recovery must leave a fully usable tree: keep inserting.
			for _, v := range vs[committed : committed+10] {
				if err := re.Insert(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := re.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCrashMidDeleteUnderflowRecovers crashes a delete that triggers a leaf
// underflow (condense-and-reinsert) at its meta commit. The orphaned leaf's
// page belongs to the last committed tree; the re-inserts allocate pages and
// must NOT reuse it before the commit, or recovery decodes overwritten
// state. This is the regression test for freeNodeSubtree using deferred
// frees.
func TestCrashMidDeleteUnderflowRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delcrash.db")
	fb, err := pagefile.CreateFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	mgr, err := pagefile.NewManager(fault.WrapBackend(fb, inj), 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 75 spread vectors plus 25 near-identical ones that bulk-load into one
	// full leaf (capLeaf = (1024-3)/40 = 25), so deleting clones eventually
	// underflows that leaf.
	rng := rand.New(rand.NewSource(3))
	var vs []pfv.Vector
	for i := 0; i < 75; i++ {
		vs = append(vs, pfv.MustNew(uint64(i+1),
			[]float64{rng.Float64() * 50, rng.Float64() * 50},
			[]float64{0.1 + rng.Float64(), 0.1 + rng.Float64()}))
	}
	var clones []pfv.Vector
	for i := 0; i < 25; i++ {
		c := pfv.MustNew(uint64(1000+i),
			[]float64{200 + float64(i)*1e-6, 200}, []float64{0.5, 0.5})
		clones = append(clones, c)
		vs = append(vs, c)
	}
	if err := tr.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	// Committed deletes down to the minimum fill, then crash the delete
	// that underflows.
	deleted := 0
	for _, c := range clones {
		failMeta(t, inj)
		_, err := tr.Delete(c)
		inj.Disarm()
		if err == nil {
			t.Fatal("every delete should fail at its meta commit")
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("delete error = %v, want injected fault", err)
		}
		// "Crash" and recover: the failed delete must have left the
		// committed tree untouched on disk.
		fb.Close()
		re, mgr2 := openFileTree(t, path)
		if re.Len() != 100-deleted {
			t.Fatalf("after crashed delete %d: recovered Len = %d, want %d", deleted, re.Len(), 100-deleted)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("after crashed delete %d: recovered invariants: %v", deleted, err)
		}
		// Redo the delete for real and carry on with the recovered tree.
		if ok, err := re.Delete(c); err != nil || !ok {
			t.Fatalf("committed delete: ok=%v err=%v", ok, err)
		}
		deleted++
		mgr2.Close()
		fb2, err := pagefile.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fb = fb2
		if mgr, err = pagefile.NewManager(fault.WrapBackend(fb, inj), 1024); err != nil {
			t.Fatal(err)
		}
		if tr, err = Open(mgr); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 75 {
		t.Fatalf("final Len = %d, want 75", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
}

// TestCrashDuringMetaCommitRecovers fails the meta write itself: the
// mutation's data pages hit the disk but the commit never lands, so
// recovery must roll back to the previous commit.
func TestCrashDuringMetaCommitRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metacrash.db")
	fb, err := pagefile.CreateFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	mgr, err := pagefile.NewManager(fault.WrapBackend(fb, inj), 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(mgr, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	vs := clusteredVectors(rng, 60, 2, 3)
	for _, v := range vs[:50] {
		if err := tr.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	// Arm the fault: every page write still succeeds, only the commit fails.
	failMeta(t, inj)
	err = tr.Insert(vs[50])
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("insert error = %v, want injected fault", err)
	}
	fb.Close()

	re, mgr2 := openFileTree(t, path)
	defer mgr2.Close()
	if re.Len() != 50 {
		t.Errorf("recovered Len = %d, want 50 (uncommitted insert rolled back)", re.Len())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
