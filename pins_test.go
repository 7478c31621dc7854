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
// loads the published snapshot — core's pinSnap holds the only PinEpoch
// call, which scripts/loc.sh counts — and must unpin on every path,
// answered, cancelled or failed, or every page freed after that epoch stays
// out of the allocator for good. With a cache of four pages, so reads reach
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
