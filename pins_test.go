package gausstree_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree"
)

// contextQueries returns the k-MLIQ, ranked k-MLIQ and TIQ of a Tree or a
// Sharded, each as a call that takes the context and reports only the error.
func contextQueries(idx anyIndex) map[string]func(context.Context, gausstree.Vector) error {
	switch x := idx.(type) {
	case *gausstree.Tree:
		return queriesOf(x.KMLIQContext, x.KMLIQRankedContext, x.TIQContext)
	case *gausstree.Sharded:
		return queriesOf(x.KMLIQContext, x.KMLIQRankedContext, x.TIQContext)
	}
	panic("not a Tree or a Sharded")
}

func queriesOf[S any](
	kmliq, ranked func(context.Context, gausstree.Vector, int) ([]gausstree.Match, S, error),
	tiq func(context.Context, gausstree.Vector, float64) ([]gausstree.Match, S, error),
) map[string]func(context.Context, gausstree.Vector) error {
	const k, theta = 100, 1e-6
	return map[string]func(context.Context, gausstree.Vector) error{
		"k-MLIQ": func(ctx context.Context, q gausstree.Vector) error { _, _, err := kmliq(ctx, q, k); return err },
		"ranked": func(ctx context.Context, q gausstree.Vector) error { _, _, err := ranked(ctx, q, k); return err },
		"TIQ":    func(ctx context.Context, q gausstree.Vector) error { _, _, err := tiq(ctx, q, theta); return err },
	}
}

// TestEveryReadReleasesItsPin: a read pins a reclamation epoch before it
// loads the published snapshot, and a mutation for the length of its apply —
// core's pin helper holds the only PinEpoch call, which scripts/loc.sh
// counts — and each must unpin on every path, answered, cancelled or failed,
// or every page freed after that epoch stays out of the allocator and every
// page image retired after it out of circulation for good. With a cache of four pages, so reads reach
// the backend, every read below is followed by PinnedReaders() == 0 and
// OldestPinnedEpoch() == SnapshotEpoch(). A cancelled or failing shard
// closes its cursor after a failed Refine and cancels its siblings
// mid-traversal; on more than one shard Insert and Delete route by each
// shard's RootBox and every query's cursors queue each shard's root under its
// root box (Cursor.AsShard), so those pins are counted too.
func TestEveryReadReleasesItsPin(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l layout, file bool) {
		inj := gausstree.NewFaultInjector()
		o := contractOptions(t, file)
		o.CacheBytes, o.Fault = 4*o.PageSize, inj
		idx, err := l.create(2, o)
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		if err := idx.BulkLoad(batchOf(0, 2000)); err != nil {
			t.Fatal(err)
		}
		q := seqVector(7)
		arm := func(r gausstree.FaultRule) {
			if err := inj.Arm(gausstree.FaultSchedule{Ops: map[gausstree.FaultOp]gausstree.FaultRule{gausstree.FaultOpPageRead: r}}); err != nil {
				t.Fatal(err)
			}
		}
		// check runs one read and requires its error to match want (nil: none)
		// and its pin to be gone.
		check := func(name string, want error, read func() error) {
			t.Helper()
			if err := read(); !errors.Is(err, want) {
				t.Errorf("%s: err = %v, want %v", name, err, want)
			}
			if n, oldest, epoch := idx.PinnedReaders(), idx.OldestPinnedEpoch(), idx.SnapshotEpoch(); n != 0 || oldest != epoch {
				t.Errorf("after %s: %d pins held, oldest pinned epoch %d, snapshot epoch %d", name, n, oldest, epoch)
			}
		}
		errStop := errors.New("stop")
		reads := map[string]func() error{
			"ForEach":         func() error { return idx.ForEach(func(gausstree.Vector) error { return nil }) },
			"CheckInvariants": idx.CheckInvariants,
			"Scrub":           func() error { _, err := idx.Scrub(context.Background(), gausstree.ScrubOptions{}); return err },
		}

		// Answered.
		for name, query := range contextQueries(idx) {
			check(name, nil, func() error { return query(context.Background(), q) })
		}
		for name, read := range reads {
			check(name, nil, read)
		}
		check("ForEach stopped by its callback", errStop, func() error {
			return idx.ForEach(func(gausstree.Vector) error { return errStop })
		})
		check("Insert", nil, func() error { return idx.Insert(seqVector(5000)) })
		check("Delete", nil, func() error { _, err := idx.Delete(seqVector(5000)); return err })

		// Cancelled mid-traversal: every backend read takes a millisecond and
		// the context expires after two.
		arm(gausstree.FaultRule{LatencyMS: 1})
		for name, query := range contextQueries(idx) {
			check("cancelled "+name, context.DeadlineExceeded, func() error {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
				defer cancel()
				return query(ctx, q)
			})
		}

		// Failed: every backend read after the first three fails.
		for name, query := range contextQueries(idx) {
			arm(gausstree.FaultRule{After: 3})
			check("failed "+name, gausstree.ErrInjected, func() error { return query(context.Background(), q) })
		}
		for name, read := range reads {
			arm(gausstree.FaultRule{After: 3})
			check("failed "+name, gausstree.ErrInjected, read)
		}
		// A new snapshot's root box is read by its first user: insert, walk
		// the tree so the new root leaves the cache, then fail every read.
		inj.Disarm()
		check("Insert", nil, func() error { return idx.Insert(seqVector(5001)) })
		check("ForEach", nil, reads["ForEach"])
		arm(gausstree.FaultRule{Prob: 1})
		check("failed ranked on a new snapshot", gausstree.ErrInjected, func() error {
			return contextQueries(idx)["ranked"](context.Background(), q)
		})
		inj.Disarm()

		// The writer pins too, for the length of each mutation's apply. Every
		// mutation is checked answered, slowed and failed by a page-write
		// fault inside its apply, on an index of its own, since the failure
		// poisons it. Replace is a Tree's merge-ingest path (Options.Ingest).
		mutations := map[string]func(x anyIndex, i int) error{
			"Insert":    func(x anyIndex, i int) error { return x.Insert(seqVector(6000 + i)) },
			"Delete":    func(x anyIndex, i int) error { _, err := x.Delete(seqVector(i)); return err },
			"InsertAll": func(x anyIndex, i int) error { _, err := x.InsertAll(batchOf(6000+10*i, 3)); return err },
		}
		if l.name == "tree" {
			mutations["Replace"] = func(x anyIndex, i int) error {
				v := seqVector(i)
				v.ID = uint64(7000 + i)
				return x.Insert(v) // a duplicate of a stored vector: merged into it
			}
		}
		for name, mutate := range mutations {
			inj := gausstree.NewFaultInjector()
			o := contractOptions(t, file)
			o.CacheBytes, o.Fault = 4*o.PageSize, inj
			if name == "Replace" {
				o.Ingest = &gausstree.IngestOptions{MergeDistance: 0.5}
			}
			x, err := l.create(2, o)
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			if err := x.BulkLoad(batchOf(0, 500)); err != nil {
				t.Fatal(err)
			}
			for i, c := range []struct {
				how  string
				op   gausstree.FaultOp
				rule gausstree.FaultRule
				want error
			}{
				{"answered", gausstree.FaultOpPageRead, gausstree.FaultRule{}, nil},
				{"slowed", gausstree.FaultOpPageRead, gausstree.FaultRule{LatencyMS: 1}, nil},
				{"failed", gausstree.FaultOpPageWrite, gausstree.FaultRule{Prob: 1}, gausstree.ErrInjected},
			} {
				if err := inj.Arm(gausstree.FaultSchedule{Ops: map[gausstree.FaultOp]gausstree.FaultRule{c.op: c.rule}}); err != nil {
					t.Fatal(err)
				}
				if err := mutate(x, i); !errors.Is(err, c.want) {
					t.Errorf("%s %s: err = %v, want %v", c.how, name, err, c.want)
				}
				if n, oldest, epoch := x.PinnedReaders(), x.OldestPinnedEpoch(), x.SnapshotEpoch(); n != 0 || oldest != epoch {
					t.Errorf("after %s %s: %d pins held, oldest pinned epoch %d, snapshot epoch %d", c.how, name, n, oldest, epoch)
				}
			}
			if tr, ok := x.(*gausstree.Tree); ok && name == "Replace" {
				if st, _ := tr.IngestStats(); st.Merged != 2 {
					t.Errorf("%d of the 2 answered inserts merged into a stored vector", st.Merged)
				}
			}
		}

		// Over pages corrupted on disk.
		if !file {
			return
		}
		files := []string{o.Path}
		if fi, err := os.Stat(o.Path); err == nil && fi.IsDir() {
			files, _ = filepath.Glob(filepath.Join(o.Path, "*.gtree"))
		}
		for _, f := range files {
			flipBytes(t, f, int64(o.PageSize))
		}
		check("CheckInvariants over corrupted pages", gausstree.ErrCorrupt, idx.CheckInvariants)
		check("Scrub over corrupted pages", gausstree.ErrCorrupt, reads["Scrub"])
	})
}
