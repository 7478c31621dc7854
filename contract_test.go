package gausstree_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"
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

// answer is what a *Context query returned, in the one shape Tree and
// Sharded share; rounds is 0 for a Tree, which does not report them.
type answer struct {
	ms     []gausstree.Match
	st     gausstree.QueryStats
	rounds int
	err    error
}

// ask runs KMLIQContext (k > 0) or TIQContext (k == 0, threshold theta).
func ask(ctx context.Context, idx anyIndex, q gausstree.Vector, k int, theta float64) answer {
	switch x := idx.(type) {
	case *gausstree.Tree:
		if k > 0 {
			ms, st, err := x.KMLIQContext(ctx, q, k)
			return answer{ms, st, 0, err}
		}
		ms, st, err := x.TIQContext(ctx, q, theta)
		return answer{ms, st, 0, err}
	case *gausstree.Sharded:
		if k > 0 {
			ms, st, err := x.KMLIQContext(ctx, q, k)
			return answer{ms, st.Stats, st.MergeRounds, err}
		}
		ms, st, err := x.TIQContext(ctx, q, theta)
		return answer{ms, st.Stats, st.MergeRounds, err}
	}
	panic("unknown layout")
}

// sameAnswer reports how two answers differ ("" when they do not): matches
// bit for bit, every counter and the error's text.
func sameAnswer(a, b answer) string {
	if fmt.Sprint(a.err) != fmt.Sprint(b.err) || a.st != b.st || len(a.ms) != len(b.ms) {
		return fmt.Sprintf("%d matches, %+v, err %v | %d matches, %+v, err %v", len(a.ms), a.st, a.err, len(b.ms), b.st, b.err)
	}
	for i, m := range a.ms {
		o := b.ms[i]
		if !m.Vector.Equal(o.Vector) || math.Float64bits(m.ProbLow) != math.Float64bits(o.ProbLow) ||
			math.Float64bits(m.ProbHigh) != math.Float64bits(o.ProbHigh) || math.Float64bits(m.LogDensity) != math.Float64bits(o.LogDensity) {
			return fmt.Sprintf("match %d: %+v | %+v", i, m, o)
		}
	}
	return ""
}

// expiringContext cancels itself on its (left+1)-th Err call: the traversal
// asks before every node read, so the query is cancelled after exactly left
// nodes, however fast the host is.
type expiringContext struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int32
}

func expiresAfter(nodes int32) *expiringContext {
	c := &expiringContext{}
	c.Context, c.cancel = context.WithCancel(context.Background())
	c.left.Store(nodes)
	return c
}

func (c *expiringContext) Err() error {
	if c.left.Add(-1) < 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestContractOneShardEqualsTree: a one-shard Sharded is a Tree in another
// layout — after the same mutation sequence every gauge, counter and scrub
// report agrees exactly, and so does every query: matches, certified
// intervals and what the traversal cost, in one merge round.
func TestContractOneShardEqualsTree(t *testing.T) {
	type observed struct {
		answers  map[string]answer
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
		o.answers = map[string]answer{}
		for i, v := range vs[100:130] {
			q := gausstree.MustVector(0, []float64{v.Mean[0] + 0.3, v.Mean[1] - 0.2, v.Mean[2] + 0.1}, v.Sigma)
			// The façade refuses θ = 0; both layouts must, identically.
			for _, theta := range []float64{0, 0.05, 0.5, 0.8, 1} {
				o.answers[fmt.Sprintf("q%d tiq(%v)", i, theta)] = ask(context.Background(), idx, q, 0, theta)
			}
			for _, k := range []int{1, 3, 10} {
				o.answers[fmt.Sprintf("q%d kmliq(%d)", i, k)] = ask(context.Background(), idx, q, k, 0)
			}
			// Cancelled after two nodes: the error is the context's, the
			// statistics are what those two nodes cost.
			for _, k := range []int{0, 3} {
				a := ask(expiresAfter(2), idx, q, k, 0.5)
				if a.err != context.Canceled || a.ms != nil || a.st.NodesVisited != 2 || a.st.PageAccesses != 2 {
					t.Errorf("q%d k=%d cancelled after 2 nodes: %d matches, %+v, err %v", i, k, len(a.ms), a.st, a.err)
				}
				o.answers[fmt.Sprintf("q%d cancelled(%d)", i, k)] = a
			}
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
			early := 0
			for name, a := range tree.answers {
				b := one.answers[name]
				if diff := sameAnswer(a, b); diff != "" {
					t.Errorf("%s: tree | one shard: %s", name, diff)
				}
				if b.err == nil && b.rounds != 1 {
					t.Errorf("%s: one shard took %d merge rounds", name, b.rounds)
				}
				if a.st.EarlyTermination {
					early++
				}
			}
			if early == 0 {
				t.Error("no query terminated early: the comparison never exercised a stop test")
			}
		})
	}
}
