package gausstree_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pagefile"
)

// anyIndex is the method set Tree and Sharded share. The contract below is
// written against it once and run over every layout.
type anyIndex interface {
	Dim() int
	Len() int
	LeafFormat() gausstree.LeafFormat
	SnapshotEpoch() uint64
	PinnedReaders() int
	OldestPinnedEpoch() uint64
	LimboPages() int
	WALStats() (gausstree.WALStats, bool)
	Insert(gausstree.Vector) error
	InsertAll([]gausstree.Vector) (int, error)
	BulkLoad([]gausstree.Vector) error
	Delete(gausstree.Vector) (bool, error)
	KMostLikely(gausstree.Vector, int) ([]gausstree.Match, error)
	KMostLikelyRanked(gausstree.Vector, int) ([]gausstree.Match, error)
	Threshold(gausstree.Vector, float64) ([]gausstree.Match, error)
	Stats() (pagefile.Stats, error)
	ResetStats() error
	CheckInvariants() error
	ForEach(func(gausstree.Vector) error) error
	Sync() error
	Scrub(context.Context, gausstree.ScrubOptions) (gausstree.ScrubReport, error)
	Quarantine(error)
	Close() error
}

// layout is one way to lay an index out: a Tree, or a Sharded of n shards.
type layout struct {
	name   string
	create func(dim int, o gausstree.Options) (anyIndex, error)
	open   func(path string) (anyIndex, error)
}

func shardedLayout(name string, n int) layout {
	return layout{
		name: name,
		create: func(dim int, o gausstree.Options) (anyIndex, error) {
			return gausstree.NewSharded(dim, n, o)
		},
		open: func(path string) (anyIndex, error) { return gausstree.OpenSharded(path) },
	}
}

var layouts = []layout{
	{
		name:   "tree",
		create: func(dim int, o gausstree.Options) (anyIndex, error) { return gausstree.New(dim, o) },
		open:   func(path string) (anyIndex, error) { return gausstree.Open(path) },
	},
	shardedLayout("sharded1", 1),
	shardedLayout("sharded4", 4),
}

// contractOptions returns the options of one layout × backend cell; file
// says whether it lives under a fresh temporary path.
func contractOptions(t *testing.T, file bool) gausstree.Options {
	o := gausstree.Options{PageSize: 1024}
	if file {
		o.Path = filepath.Join(t.TempDir(), "index")
	}
	return o
}

func forEachLayout(t *testing.T, f func(t *testing.T, l layout, file bool)) {
	for _, l := range layouts {
		for _, file := range []bool{false, true} {
			name := l.name + "/memory"
			if file {
				name = l.name + "/file"
			}
			t.Run(name, func(t *testing.T) { f(t, l, file) })
		}
	}
}

// TestContractClosed: after Close every method reports ErrClosed, or the
// zero its documentation promises, whatever the layout and backend.
func TestContractClosed(t *testing.T) {
	forEachLayout(t, func(t *testing.T, l layout, file bool) {
		idx, err := l.create(2, contractOptions(t, file))
		if err != nil {
			t.Fatal(err)
		}
		v := gausstree.MustVector(1, []float64{1, 2}, []float64{0.5, 0.5})
		if err := idx.Insert(v); err != nil {
			t.Fatal(err)
		}
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
		if err := idx.Close(); err != nil {
			t.Errorf("second Close = %v, want nil", err)
		}
		idx.Quarantine(errors.New("late")) // documented no-op on a closed index

		ctx := context.Background()
		_, errInsertAll := idx.InsertAll([]gausstree.Vector{v})
		_, errDelete := idx.Delete(v)
		_, errK := idx.KMostLikely(v, 1)
		_, errRanked := idx.KMostLikelyRanked(v, 1)
		_, errTheta := idx.Threshold(v, 0.5)
		_, errStats := idx.Stats()
		_, errScrub := idx.Scrub(ctx, gausstree.ScrubOptions{})
		closed := map[string]error{
			"Insert":            idx.Insert(v),
			"InsertAll":         errInsertAll,
			"BulkLoad":          idx.BulkLoad([]gausstree.Vector{v}),
			"Delete":            errDelete,
			"KMostLikely":       errK,
			"KMostLikelyRanked": errRanked,
			"Threshold":         errTheta,
			"Stats":             errStats,
			"ResetStats":        idx.ResetStats(),
			"CheckInvariants":   idx.CheckInvariants(),
			"ForEach":           idx.ForEach(func(gausstree.Vector) error { return nil }),
			"Sync":              idx.Sync(),
			"Scrub":             errScrub,
		}
		switch x := idx.(type) {
		case *gausstree.Tree:
			_, _, closed["KMLIQContext"] = x.KMLIQContext(ctx, v, 1)
			_, _, closed["KMLIQRankedContext"] = x.KMLIQRankedContext(ctx, v, 1)
			_, _, closed["TIQContext"] = x.TIQContext(ctx, v, 0.5)
			closed["InsertContext"] = x.InsertContext(ctx, v)
			_, closed["SweepExpired"] = x.SweepExpired()
			if h := x.Height(); h != 0 {
				t.Errorf("Height = %d after Close, want 0", h)
			}
			if _, ok := x.IngestStats(); ok {
				t.Error("IngestStats ok on a tree without merge-ingest")
			}
		case *gausstree.Sharded:
			_, _, closed["KMLIQContext"] = x.KMLIQContext(ctx, v, 1)
			_, _, closed["KMLIQRankedContext"] = x.KMLIQRankedContext(ctx, v, 1)
			_, _, closed["TIQContext"] = x.TIQContext(ctx, v, 0.5)
			if n := x.NumShards(); n != 0 {
				t.Errorf("NumShards = %d after Close, want 0", n)
			}
		}
		for name, err := range closed {
			if !errors.Is(err, gausstree.ErrClosed) {
				t.Errorf("%s after Close = %v, want ErrClosed", name, err)
			}
		}
		if idx.Dim() != 0 || idx.Len() != 0 || idx.LeafFormat() != gausstree.LeafExact {
			t.Errorf("Dim/Len/LeafFormat after Close = %d/%d/%v, want 0/0/exact", idx.Dim(), idx.Len(), idx.LeafFormat())
		}
		if idx.SnapshotEpoch() != 0 || idx.PinnedReaders() != 0 || idx.OldestPinnedEpoch() != 0 || idx.LimboPages() != 0 {
			t.Error("epoch gauges are not zero after Close")
		}
		if ws, ok := idx.WALStats(); ok || ws != (gausstree.WALStats{}) {
			t.Errorf("WALStats after Close = %+v, %v; want zero, false", ws, ok)
		}
	})
}

// TestContractQuarantineCoexists: a quarantined index and a fresh one opened
// over the same files coexist — the old one keeps reading and can no longer
// write, the new one holds every acknowledged mutation and takes new ones,
// and closing the old one afterwards damages nothing.
func TestContractQuarantineCoexists(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			o := contractOptions(t, true)
			old, err := l.create(2, o)
			if err != nil {
				t.Fatal(err)
			}
			vs := randomWorld(rand.New(rand.NewSource(5)), 60, 2)
			for _, v := range vs[:50] {
				if err := old.Insert(v); err != nil {
					t.Fatal(err)
				}
			}
			cause := errors.New("operator said so")
			old.Quarantine(cause)
			if err := old.Insert(vs[50]); !errors.Is(err, gausstree.ErrPoisoned) || !errors.Is(err, cause) {
				t.Fatalf("Insert on quarantined index = %v, want ErrPoisoned wrapping the cause", err)
			}

			fresh, err := l.open(o.Path)
			if err != nil {
				t.Fatalf("open beside the quarantined index: %v", err)
			}
			defer fresh.Close()
			if fresh.Len() != 50 {
				t.Fatalf("fresh Len = %d, want the 50 acknowledged inserts", fresh.Len())
			}
			for _, v := range vs[50:] {
				if err := fresh.Insert(v); err != nil {
					t.Fatal(err)
				}
			}
			if ms, err := old.KMostLikely(vs[0], 1); err != nil || len(ms) != 1 {
				t.Fatalf("read on quarantined index = %v, %v", ms, err)
			}
			if old.Len() != 50 {
				t.Errorf("quarantined Len = %d, want its last snapshot of 50", old.Len())
			}
			old.Close() // its checkpoint is refused; the files belong to fresh now

			if err := fresh.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Scrub(context.Background(), gausstree.ScrubOptions{}); err != nil {
				t.Fatalf("scrub after the old index closed: %v", err)
			}
			if err := fresh.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := l.open(o.Path)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if again.Len() != len(vs) {
				t.Fatalf("reopened Len = %d, want %d", again.Len(), len(vs))
			}
		})
	}
}

// TestContractOneShardEqualsTree: a one-shard Sharded is a Tree in another
// layout — after the same mutation sequence every gauge, counter and scrub
// report agrees exactly.
func TestContractOneShardEqualsTree(t *testing.T) {
	type observed struct {
		wal      gausstree.WALStats
		walOK    bool
		epoch    uint64
		oldest   uint64
		pinned   int
		limbo    int
		len      int
		io       pagefile.Stats
		pages    int
		walRecs  int
		contents map[uint64]int
	}
	// Every mutation is awaited on its own, so each is one group commit and
	// the fsync count is as deterministic as the record count.
	run := func(t *testing.T, l layout, file bool) observed {
		idx, err := l.create(3, contractOptions(t, file))
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		vs := randomWorld(rand.New(rand.NewSource(9)), 340, 3)
		if err := idx.BulkLoad(vs[:300]); err != nil {
			t.Fatal(err)
		}
		for _, v := range vs[300:] {
			if err := idx.Insert(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range vs[:25] {
			if ok, err := idx.Delete(v); err != nil || !ok {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var o observed
		o.wal, o.walOK = idx.WALStats()
		o.epoch, o.oldest = idx.SnapshotEpoch(), idx.OldestPinnedEpoch()
		o.pinned, o.limbo, o.len = idx.PinnedReaders(), idx.LimboPages(), idx.Len()
		if o.io, err = idx.Stats(); err != nil {
			t.Fatal(err)
		}
		rep, err := idx.Scrub(context.Background(), gausstree.ScrubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		o.pages, o.walRecs = rep.Pages, rep.WALRecords
		o.contents = map[uint64]int{}
		if err := idx.ForEach(func(v gausstree.Vector) error { o.contents[v.ID]++; return nil }); err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, file := range []bool{false, true} {
		name := "memory"
		if file {
			name = "file"
		}
		t.Run(name, func(t *testing.T) {
			tree, one := run(t, layouts[0], file), run(t, layouts[1], file)
			if tree.wal != one.wal || tree.walOK != one.walOK || tree.walOK != file {
				t.Errorf("WALStats: tree %+v (%v), one shard %+v (%v)", tree.wal, tree.walOK, one.wal, one.walOK)
			}
			if tree.epoch != one.epoch || tree.oldest != one.oldest || tree.pinned != one.pinned || tree.limbo != one.limbo {
				t.Errorf("epoch gauges: tree %d/%d/%d/%d, one shard %d/%d/%d/%d",
					tree.epoch, tree.oldest, tree.pinned, tree.limbo, one.epoch, one.oldest, one.pinned, one.limbo)
			}
			if tree.io != one.io {
				t.Errorf("Stats: tree %+v, one shard %+v", tree.io, one.io)
			}
			if tree.pages != one.pages || tree.walRecs != one.walRecs || tree.pages == 0 {
				t.Errorf("Scrub: tree %d pages/%d records, one shard %d/%d", tree.pages, tree.walRecs, one.pages, one.walRecs)
			}
			if tree.len != 315 || one.len != 315 || len(tree.contents) != len(one.contents) {
				t.Errorf("contents: tree %d vectors, one shard %d, want 315", tree.len, one.len)
			}
		})
	}
}
