package server

import (
	"context"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/query"
)

// Index is the uniform index surface the daemon serves. TreeIndex and
// ShardedIndex wrap either public index type in the one adapter, so every
// handler, the admission controller and the batch executor are written once,
// engine-agnostically — exactly how the query.Engine interface already
// unifies the in-process backends one layer below.
//
// The query methods certify probabilities to the index's configured
// Options.Accuracy; the serving layer adds deadlines on top via ctx.
type Index interface {
	shared
	// Kind names the backend ("tree" or "sharded") for /v1/stats.
	Kind() string
	// LeafFormat names the on-page leaf encoding ("exact", "float32",
	// "grid8") for /v1/stats.
	LeafFormat() string
	// KMLIQ answers a k-most-likely identification query with certified
	// probabilities.
	KMLIQ(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error)
	// KMLIQRanked answers a k-MLIQ without probability values (NaN fields).
	KMLIQRanked(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error)
	// TIQ answers a threshold identification query.
	TIQ(ctx context.Context, q gausstree.Vector, pTheta float64) ([]gausstree.Match, gausstree.QueryStats, error)
	// IOStats reports the page manager's I/O counters.
	IOStats() (pagefile.Stats, error)
	// Scrub verifies every reachable page and the write-ahead log's durable
	// prefix against bit rot and structural damage, rate-limited to
	// pagesPerSecond (0 = unthrottled); see gausstree.Tree.Scrub.
	Scrub(ctx context.Context, pagesPerSecond int) (gausstree.ScrubReport, error)
}

// shared is the part of Index that Tree and Sharded provide under the same
// names and signatures (one implementation in the root package, promoted
// into both), so the adapter passes it through by embedding.
type shared interface {
	// Dim returns the feature dimensionality of the index.
	Dim() int
	// Len returns the number of stored vectors.
	Len() int
	// ShardLens returns them shard by shard (one entry for a tree).
	ShardLens() []int
	// Insert durably adds one vector (non-blocking for concurrent reads:
	// acknowledged once its WAL record is group-committed).
	Insert(v gausstree.Vector) error
	// InsertAll durably adds a batch of vectors and returns how many are
	// durably applied (len(vs) on success; a durable subset on error).
	InsertAll(vs []gausstree.Vector) (int, error)
	// Delete removes one exactly-matching stored copy.
	Delete(v gausstree.Vector) (bool, error)
	// WALStats reports the group-commit write-ahead-log counters; ok is
	// false for memory-backed indexes (no WAL).
	WALStats() (ws gausstree.WALStats, ok bool)
	// SnapshotEpoch is the monotone count of committed mutations (the
	// published snapshot's reclamation epoch; summed across shards).
	SnapshotEpoch() uint64
	// PinnedReaders is the number of snapshot readers currently pinning a
	// reclamation epoch (summed across shards).
	PinnedReaders() int
	// OldestPinnedEpoch is a lower bound on the oldest epoch a pinned reader
	// still observes (summed across shards, matching SnapshotEpoch's
	// convention); the gap SnapshotEpoch−OldestPinnedEpoch bounds the total
	// reclamation lag.
	OldestPinnedEpoch() uint64
	// LimboPages is the number of freed pages awaiting epoch reclamation.
	LimboPages() int
	// Quarantine makes the index permanently write-inert without closing it
	// (reads keep serving the last committed snapshot), so a fresh index can
	// be opened over the same files; see gausstree.Tree.Quarantine.
	Quarantine(cause error)
	// Sync flushes written pages to stable storage.
	Sync() error
	// Close releases the index.
	Close() error
}

// facade is shared plus the methods both public types have but Index
// spells differently.
type facade interface {
	shared
	LeafFormat() gausstree.LeafFormat
	Stats() (pagefile.Stats, error)
	Scrub(ctx context.Context, opts gausstree.ScrubOptions) (gausstree.ScrubReport, error)
}

// queryFunc is one identification query with its second argument (k or
// pTheta) left open.
type queryFunc[A any] func(ctx context.Context, q gausstree.Vector, arg A) ([]gausstree.Match, gausstree.QueryStats, error)

// adapter is the one Index implementation. The query fields hold the public
// type's own methods, Sharded's with their statistics collapsed.
type adapter struct {
	facade
	kind          string
	kmliq, ranked queryFunc[int]
	tiq           queryFunc[float64]
}

func (a adapter) Kind() string       { return a.kind }
func (a adapter) LeafFormat() string { return a.facade.LeafFormat().String() }
func (a adapter) KMLIQ(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error) {
	return a.kmliq(ctx, q, k)
}
func (a adapter) KMLIQRanked(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error) {
	return a.ranked(ctx, q, k)
}
func (a adapter) TIQ(ctx context.Context, q gausstree.Vector, pTheta float64) ([]gausstree.Match, gausstree.QueryStats, error) {
	return a.tiq(ctx, q, pTheta)
}
func (a adapter) IOStats() (pagefile.Stats, error) { return a.Stats() }
func (a adapter) Scrub(ctx context.Context, pps int) (gausstree.ScrubReport, error) {
	return a.facade.Scrub(ctx, gausstree.ScrubOptions{PagesPerSecond: pps})
}

// TreeIndex adapts an unsharded Gauss-tree to the serving surface.
func TreeIndex(t *gausstree.Tree) Index {
	return adapter{
		facade: t, kind: "tree",
		kmliq: t.KMLIQContext, ranked: t.KMLIQRankedContext, tiq: t.TIQContext,
	}
}

// ShardedIndex adapts a sharded Gauss-tree to the serving surface; the
// per-shard statistic breakdown is collapsed into the aggregate QueryStats
// (the wire format reports the aggregate).
func ShardedIndex(s *gausstree.Sharded) Index {
	return adapter{
		facade: s, kind: "sharded",
		kmliq: aggregate(s.KMLIQContext), ranked: aggregate(s.KMLIQRankedContext), tiq: aggregate(s.TIQContext),
	}
}

// aggregate drops the per-shard breakdown of a Sharded query's statistics.
func aggregate[A any](f func(context.Context, gausstree.Vector, A) ([]gausstree.Match, gausstree.ShardedQueryStats, error)) queryFunc[A] {
	return func(ctx context.Context, q gausstree.Vector, arg A) ([]gausstree.Match, gausstree.QueryStats, error) {
		ms, st, err := f(ctx, q, arg)
		return ms, st.Stats, err
	}
}

// indexEngine adapts the serving surface back onto query.Engine, which lets
// the batch endpoint reuse query.BatchExecutor's worker pool unchanged. The
// accuracy parameter is ignored: the served index certifies to its own
// configured accuracy, uniformly for single and batched queries. It holds
// the server, not an Index, so batch queries follow a recovery swap like
// every other endpoint.
type indexEngine struct{ s *Server }

var _ query.Engine = indexEngine{}

func (e indexEngine) Name() string { return "served-" + e.s.index().Kind() }

func (e indexEngine) KMLIQ(ctx context.Context, q gausstree.Vector, k int, _ float64) ([]query.Result, query.Stats, error) {
	return e.s.index().KMLIQ(ctx, q, k)
}

func (e indexEngine) KMLIQRanked(ctx context.Context, q gausstree.Vector, k int) ([]query.Result, query.Stats, error) {
	return e.s.index().KMLIQRanked(ctx, q, k)
}

func (e indexEngine) TIQ(ctx context.Context, q gausstree.Vector, pTheta float64, _ float64) ([]query.Result, query.Stats, error) {
	return e.s.index().TIQ(ctx, q, pTheta)
}
