package core

import (
	"fmt"
	"sync/atomic"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/wal"
)

// Snapshot-isolated reads.
//
// A mutation never edits a node object a reader might hold: the descent
// clones every node on the insertion/deletion path before touching it
// (node.clone), writes the clones copy-on-write to fresh pages, and finally
// publishes the new tree state as an immutable treeSnap behind an atomic
// pointer. Readers pin a page-reclamation epoch (pagefile.Manager.PinEpoch)
// FIRST and load the published snapshot SECOND; the writer stores the new
// snapshot FIRST and advances the epoch SECOND (publish). That ordering
// guarantees every page reachable from the snapshot a reader loaded stays
// out of the allocator until the reader unpins — see internal/pagefile's
// epoch.go for the full argument. Queries therefore never take the tree
// lock and never block on a concurrent writer.

// treeSnap is one immutable published tree state. Readers navigate from
// snap.root and use snap.count for result-set bookkeeping; the writer's
// t.root/t.count are private to the mutation in progress.
type treeSnap struct {
	root   pagefile.PageID
	height int
	count  int
	// box is the root's parameter box as a one-entry batch for the bound
	// kernel, filled in by the first caller of rootBox: like root and count it
	// describes the snapshot, and reading it is no query's page access.
	box atomic.Pointer[pfv.Boxes]
}

// rootBox returns the minimum bounding box of everything the snapshot stores,
// nil if that is nothing. The caller holds pin, taken before it loaded s; the
// box is a copy, kept with s. The box of one snapshot never changes, so
// racing first callers store equal values.
func (t *Tree) rootBox(s *treeSnap, pin pagefile.Pin) (*pfv.Boxes, error) {
	if b := s.box.Load(); b != nil || s.count == 0 {
		return b, nil
	}
	n, err := t.readNode(s.root, pin)
	if err != nil {
		return nil, err
	}
	var b pfv.Boxes
	if n.leaf {
		cols, err := t.exactColumns(n, pin)
		if err != nil {
			return nil, err
		}
		b = boxColumnsOf([]childEntry{{box: BoxOfColumns(cols)}}, t.dim)
	} else {
		b = union(&n.boxes, t.dim)
	}
	s.box.Store(&b)
	return &b, nil
}

// RootBox returns how many vectors the published snapshot stores and, unless
// it is empty, their minimum bounding box: what a partitioned database routes
// a mutation by (LeastEnlargement, ParamBox.ContainsVector).
func (t *Tree) RootBox() (ParamBox, int, error) {
	snap, pin := t.pinSnap()
	defer t.mgr.UnpinEpoch(pin)
	b, err := t.rootBox(snap, pin)
	if b == nil {
		return ParamBox{}, snap.count, err
	}
	return entryBox(b, 0, t.dim), snap.count, nil
}

// publish makes the writer's current state visible to new readers and
// advances the reclamation epoch so pages freed by the mutation wait for
// the readers still traversing the previous snapshot.
func (t *Tree) publish() {
	t.snap.Store(&treeSnap{root: t.root, height: t.height, count: t.count})
	t.mgr.AdvanceEpoch()
}

// snapshot returns the currently published tree state. Callers that read
// pages must pin an epoch BEFORE calling this (pinSnap does both in the
// right order).
func (t *Tree) snapshot() *treeSnap {
	return t.snap.Load()
}

// pinSnap pins the current reclamation epoch and then loads the published
// snapshot — in that order, which is what makes the snapshot's pages safe
// to read. Release with t.mgr.UnpinEpoch(pin).
func (t *Tree) pinSnap() (*treeSnap, pagefile.Pin) {
	pin := t.pin()
	return t.snap.Load(), pin
}

// pin takes a pin on the page manager: core's one PinEpoch call, for the
// readers (pinSnap) and the writer (apply).
func (t *Tree) pin() pagefile.Pin {
	return t.mgr.PinEpoch()
}

// SnapshotEpoch returns the current publish epoch (diagnostics/stats).
func (t *Tree) SnapshotEpoch() uint64 {
	return t.mgr.Epoch()
}

// clone returns the writer's mutable copy of a shared node: an inner node's
// entry slice is copied (with one spare slot, since inserts append) and its
// child boxes are materialized from the columns into the entries, an exact
// leaf's columns are materialized as row-major vectors — the one place the
// row forms come into being; a quantized leaf's come from its sidecar, see
// materializeLeaf. The payload values themselves (columns, quantized payload)
// stay shared: mutation paths only ever rebind those, never edit them in
// place.
func (n *node) clone(dim int) *node {
	c := &node{id: n.id, leaf: n.leaf, kind: n.kind, cols: n.cols, quant: n.quant}
	if n.cols != nil {
		c.vectors = rowsOf(n.cols)
	}
	if n.children != nil {
		c.children = append(make([]childEntry, 0, len(n.children)+1), n.children...)
		ivs := make([]gaussian.Interval, 2*dim*len(c.children))
		for j := range c.children {
			box := ParamBox{Mu: ivs[:dim:dim], Sigma: ivs[dim : 2*dim : 2*dim]}
			ivs = ivs[2*dim:]
			boxInto(&n.boxes, j, box)
			c.children[j].box = box
		}
	}
	return c
}

// clonePath replaces every node on a descent path with its clone, so the
// mutation that follows never edits an object shared with the page cache
// (and thus with concurrent snapshot readers).
func clonePath(path []pathStep, dim int) {
	for i := range path {
		path[i].node = path[i].node.clone(dim)
	}
}

// --- Write-ahead logging -------------------------------------------------

// walCheckpointInterval bounds how many logical WAL records accumulate
// before the tree folds them into a durable meta commit and truncates the
// log. A checkpoint rewrites every dirty page and stalls the write path for
// its duration, so the interval directly trades sustained insert throughput
// against recovery replay work and the transient file growth of
// copy-on-write (pages freed since the last commit stay unreusable until
// the next one). 2048 keeps checkpoint stalls rare while replaying the
// worst-case tail in well under a second; if the pending freelist outgrows
// one meta slot the persisted copy truncates (pages leak only across a
// crash, never in a live manager — see Manager.CommitMeta).
const walCheckpointInterval = 2048

// SetWAL attaches a group-commit write-ahead log to the tree. Must be
// called before any mutation, after Open has replayed the recovered tail
// (ApplyWALTail). The tree takes over LSN bookkeeping but the caller keeps
// ownership of the log (for stats and closing). The log is reset: the
// current tree state is committed, so any surviving records are obsolete.
func (t *Tree) SetWAL(l *wal.Log) error {
	t.wal = l
	t.lastLSN.Store(t.appliedLSN)
	t.walSince = 0
	return l.Reset(t.appliedLSN)
}

// AppliedLSN returns the LSN covered by the last durable meta commit; WAL
// records at or below it are obsolete.
func (t *Tree) AppliedLSN() uint64 { return t.appliedLSN }

// LastLSN returns the LSN of the most recent logged mutation (0 when the
// tree has no WAL or nothing was logged yet).
func (t *Tree) LastLSN() uint64 { return t.lastLSN.Load() }

// WaitDurable blocks until every mutation applied so far is durable. With a
// WAL attached that means the group-commit fsync (or a checkpoint) has
// covered the last logged record — callers invoke it AFTER releasing the
// writer lock, so concurrent mutations can join the same fsync batch.
// Without a WAL every mutation commits before returning, so WaitDurable is
// a no-op.
func (t *Tree) WaitDurable() error {
	if t.wal == nil {
		return nil
	}
	lsn := t.lastLSN.Load()
	if lsn == 0 {
		return nil
	}
	return t.wal.WaitDurable(lsn)
}

// mutate is the one live mutation: refuse vectors of the wrong dimension
// (which touch no page and poison nothing) and a poisoned tree, apply, and —
// unless a delete or replace found nothing to change — seal. Insert, Delete,
// Replace and InsertAll are this call with their record type.
func (t *Tree) mutate(typ wal.RecordType, vectors ...pfv.Vector) (bool, error) {
	for _, v := range vectors {
		if v.Dim() != t.dim {
			return false, fmt.Errorf("%w: vector dimension %d, tree dimension %d", ErrDimension, v.Dim(), t.dim)
		}
	}
	if err := t.mutable(); err != nil {
		return false, err
	}
	found, err := t.apply(typ, vectors)
	if err != nil {
		return false, t.fail(err)
	}
	if !found {
		return false, nil
	}
	return true, t.seal(typ, vectors)
}

// apply runs one logical mutation — the operation a WAL record of that type
// names — on the writer's private state: shadow-paged, neither logged,
// committed nor published. Live mutations (mutate) and recovery
// (ApplyWALTail) both come through here, so replay re-runs exactly the code
// that produced the state it reconstructs. found is false, with the tree
// untouched, when the vector a delete or replace names is not stored. The
// writer holds its pin (wpin) for the length of apply.
func (t *Tree) apply(typ wal.RecordType, vectors []pfv.Vector) (found bool, err error) {
	t.wpin = t.pin()
	defer func() {
		t.mgr.UnpinEpoch(t.wpin)
		t.wpin = pagefile.Pin{}
	}()
	switch typ {
	case wal.RecInsert:
		return true, t.insert(vectors[0])
	case wal.RecDelete:
		return t.delete(vectors[0])
	case wal.RecMerge:
		// delete(old)+insert(merged) under one seal: a reader sees the old
		// vector or the merged one, never both and never neither.
		if found, err = t.delete(vectors[0]); err != nil || !found {
			return false, err
		}
		return true, t.insert(vectors[1])
	}
	return false, fmt.Errorf("core: unknown mutation type %d", typ)
}

// seal is the only place a live mutation becomes durable and then visible:
// it logs the record (or meta-commits when no WAL is attached), publishes the
// new snapshot to readers, and checkpoints when enough records have
// accumulated. The caller still holds the writer lock; the group fsync
// (WaitDurable) is awaited by the public layer after releasing it.
func (t *Tree) seal(typ wal.RecordType, vectors []pfv.Vector) error {
	if t.wal == nil {
		if err := t.commitMeta(); err != nil {
			return t.fail(err)
		}
	} else {
		lsn, err := t.wal.Append(typ, vectors...)
		if err != nil {
			return t.fail(err)
		}
		t.lastLSN.Store(lsn)
		t.walSince++
	}
	t.publish()
	if t.walSince >= walCheckpointInterval {
		return t.checkpoint()
	}
	return nil
}

// checkpoint durably commits the current tree state (meta version 3 records
// the covered LSN) and truncates the WAL. Durability waiters at or below
// the covered LSN are satisfied by the meta commit itself.
func (t *Tree) checkpoint() error {
	if t.wal == nil {
		return t.commitMeta()
	}
	lsn := t.lastLSN.Load()
	t.appliedLSN = lsn
	if err := t.commitMeta(); err != nil {
		return t.fail(err)
	}
	t.walSince = 0
	if err := t.wal.Reset(lsn); err != nil {
		return t.fail(err)
	}
	return nil
}

// Checkpoint folds every logged mutation into a durable meta commit and
// truncates the WAL (no-op without one). The public layer calls it on
// Close so a reopened tree starts with an empty log.
func (t *Tree) Checkpoint() error {
	if err := t.mutable(); err != nil {
		return err
	}
	if t.wal == nil || t.walSince == 0 {
		return nil
	}
	return t.checkpoint()
}

// ApplyWALTail replays recovered WAL records on top of the last committed
// tree state, then commits the result. Records at or below the committed
// appliedLSN are skipped (they can only appear when a checkpoint truncation
// reached the disk but a subsequent crash resurrected stale frames — LSNs
// are never reused, so the filter is exact). Call before SetWAL.
func (t *Tree) ApplyWALTail(records []wal.Record) error {
	if err := t.mutable(); err != nil {
		return err
	}
	applied := t.appliedLSN
	for _, r := range records {
		if r.LSN <= applied {
			continue
		}
		if _, err := t.apply(r.Type, r.Vectors); err != nil {
			return t.fail(err)
		}
		applied = r.LSN
	}
	// With nothing replayed the recovered state is already the committed one.
	if applied != t.appliedLSN {
		t.appliedLSN = applied
		t.lastLSN.Store(applied)
		if err := t.commitMeta(); err != nil {
			return t.fail(err)
		}
	}
	t.publish()
	return nil
}

// Replace atomically substitutes one stored vector with another (the
// ingest merge path): a single logical mutation, a single WAL record, a
// single published snapshot. Returns false (without mutating) when old is
// not stored.
func (t *Tree) Replace(old, merged pfv.Vector) (bool, error) {
	return t.mutate(wal.RecMerge, old, merged)
}
