package gausstree

import (
	"context"
	"time"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

// Vector is a probabilistic feature vector: an object id plus per-dimension
// observed values (Mean) and their uncertainties (Sigma).
type Vector = pfv.Vector

// NewVector validates and constructs a probabilistic feature vector.
func NewVector(id uint64, mean, sigma []float64) (Vector, error) {
	return pfv.New(id, mean, sigma)
}

// MustVector is NewVector but panics on invalid input.
func MustVector(id uint64, mean, sigma []float64) Vector {
	return pfv.MustNew(id, mean, sigma)
}

// Combiner selects the σ-combination rule of the joint-probability lemma.
type Combiner = gaussian.Combiner

// Available σ-combination rules: the paper's additive σv+σq (default) and
// the exact convolution √(σv²+σq²). See the gaussian package for the
// mathematical background; index correctness holds under either.
const (
	CombineAdditive    = gaussian.CombineAdditive
	CombineConvolution = gaussian.CombineConvolution
)

// LeafFormat selects the on-page encoding of leaf nodes. All formats answer
// the same queries; the quantized ones trade leaf bytes for conservatively
// widened (but always sound) pruning bounds backed by exact sidecar pages.
// See the constants for the per-format guarantees.
type LeafFormat = core.LeafFormat

// Available leaf formats.
const (
	// LeafExact (default): columnar float64 leaves, scored at
	// batch-evaluation speed.
	LeafExact = core.LeafExact
	// LeafFloat32: float32 leaf pages (half the leaf bytes) + exact
	// sidecars. Ranked results stay exact; certified probability intervals
	// may widen but always contain the exact tree's interval.
	LeafFloat32 = core.LeafFloat32
	// LeafGrid8: 8-bit VA-file-style grid leaf pages (about a quarter of
	// the leaf bytes) + exact sidecars. Same guarantees as LeafFloat32.
	LeafGrid8 = core.LeafGrid8
)

// ParseLeafFormat parses a leaf format name ("exact", "float32", "grid8");
// the empty string means LeafExact.
func ParseLeafFormat(s string) (LeafFormat, error) { return core.ParseLeafFormat(s) }

// QueryStats describes what one identification query cost and how it
// terminated (logical page accesses — the paper's central efficiency
// metric — expanded nodes, scored vectors, retained candidates, early
// termination). It is filled by the context-aware query variants. Like
// Vector, it is an alias of the internal engine-layer type, so statistics
// flow through every layer without translation.
type QueryStats = query.Stats

// Match is one answer of an identification query: the matching database
// object (Vector), its Bayesian identification probability P(v|q)
// (Probability; NaN for ranked-only queries) with the certified bounds
// ProbLow and ProbHigh on it, and the joint log density ln p(q|v)
// (LogDensity, a relative score). Like Vector and QueryStats it is an alias
// of the engine-layer type, so results flow through every layer without
// translation; it marshals to JSON with stable lowercase keys.
type Match = query.Result

// Options configure a Tree.
type Options struct {
	// PageSize is the storage page size in bytes (default 8192). For a tree
	// reattached with Open the page size always comes from the file header
	// and this field is ignored.
	PageSize int
	// CacheBytes is the page cache budget (default 50 MB). It bounds the
	// decoded nodes the index keeps as well: a cached page is its image with
	// its decoded node beside it, one page of the budget.
	CacheBytes int
	// Combiner is the σ-combination rule (default CombineAdditive). It is
	// persisted in the index meta record; Open restores the combiner the
	// tree was built with and ignores this field.
	Combiner Combiner
	// Path, when non-empty, stores the index in a file instead of memory.
	// New refuses a path that already holds an index (reattach with Open).
	Path string
	// Accuracy is the default absolute accuracy of reported probabilities
	// (default 1e-6). Lower accuracy (larger values) lets queries stop
	// earlier; 0 keeps whatever interval the traversal certified.
	Accuracy float64
	// LeafFormat selects the on-page leaf encoding (default LeafExact).
	// It is persisted in the index meta record; Open restores the format
	// the tree was built with and ignores this field.
	LeafFormat LeafFormat
	// CommitLatency is the group-commit window of the write-ahead log on
	// file-backed trees (default 2ms): how long the log committer waits
	// after the first pending record before fsyncing, so concurrent
	// mutations share the fsync. Shorter windows reduce single-insert
	// latency, longer ones batch more records per fsync under load.
	// Memory-backed trees have no WAL and ignore it.
	CommitLatency time.Duration
	// Ingest, when non-nil, switches Insert into online merge-ingest mode:
	// a new vector first probes for a near-duplicate stored Gaussian and,
	// within IngestOptions.MergeDistance, merges into it (moment-matched)
	// instead of growing the tree. See IngestOptions. Unsharded trees
	// only; NewSharded and OpenSharded reject it.
	Ingest *IngestOptions
	// Fault, when non-nil, interposes the runtime fault-injection layer
	// between the index and its storage: every page read/write/sync, meta
	// write and write-ahead-log write/fsync consults the injector, which
	// stays inert (one atomic load per I/O) until armed with a
	// FaultSchedule. A sharded tree shares one injector across all shards.
	// Intended for chaos testing a live daemon (gaussd -chaos); see
	// NewFaultInjector. When nil the storage stack is not wrapped at all.
	Fault *FaultInjector
}

// resolveOptions returns the caller's optional Options with defaults filled.
func resolveOptions(opts []Options) Options {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.PageSize <= 0 {
		o.PageSize = pagefile.DefaultPageSize
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 50 << 20
	}
	if o.Accuracy == 0 {
		o.Accuracy = 1e-6
	}
	return o
}

// Tree is a Gauss-tree index over probabilistic feature vectors. It is safe
// for concurrent use by multiple goroutines, and reads never block on
// writes: every query runs against a pinned commit-consistent snapshot
// while mutations proceed (see "Write path & snapshots" in the package
// documentation).
//
// A Tree is the one-partition layout of the index implementation it shares
// with Sharded: one page file plus "<path>.wal". Its queries are its core
// tree's own stand-alone queries, the paper's algorithm on that one tree; the
// coordinator runs only at two shards or more (see "Sharding" in the package
// documentation).
type Tree struct {
	index
}

// New creates an empty Gauss-tree for vectors of the given dimension. With
// Options.Path the index lives in a durable page file; a path that already
// holds an index is rejected so New can never clobber persisted data —
// reattach existing indexes with Open.
func New(dim int, opts ...Options) (*Tree, error) {
	o := resolveOptions(opts)
	u, err := createUnit(treeFiles(o.Path), dim, o.CacheBytes, o)
	if err != nil {
		return nil, err
	}
	return newTree(u, o)
}

// Open reattaches a Gauss-tree previously persisted at path. Everything the
// tree needs is restored from the file: the page size from the versioned
// header, and the root page, dimension, vector count and build
// configuration (σ-combiner, split objectives) from the last committed meta
// record — so queries against a reopened index return byte-identical
// results. Options may tune the cache budget and probability accuracy;
// PageSize and Combiner are taken from the file and ignored.
//
// Recovery is crash-safe: the double-buffered meta page always yields the
// last fully committed checkpoint, and Open then replays the write-ahead
// log tail (path + ".wal") on top of it — a torn or partial final log
// record is detected by checksum and discarded. A process killed at any
// point therefore reopens to a commit-consistent tree containing every
// acknowledged mutation.
func Open(path string, opts ...Options) (*Tree, error) {
	o := resolveOptions(opts)
	o.Path = path
	u, err := openUnit(treeFiles(path), o.CacheBytes, o)
	if err != nil {
		return nil, err
	}
	return newTree(u, o)
}

// treeFiles is the single-tree layout: the page file at path and its
// write-ahead log beside it; an empty path is a memory-backed tree.
func treeFiles(path string) unitFiles {
	if path == "" {
		return unitFiles{}
	}
	return unitFiles{page: path, wal: path + ".wal"}
}

func newTree(u unit, o Options) (*Tree, error) {
	t := &Tree{}
	var err error
	if o.Ingest != nil {
		t.ing, err = newIngester(*o.Ingest, u.tree)
	}
	if err == nil {
		err = t.start([]unit{u}, o)
	}
	if err != nil {
		u.release()
		return nil, err
	}
	return t, nil
}

// Height returns the tree height (1 = the root is a leaf; 0 after Close).
func (t *Tree) Height() int {
	st := t.st.Load()
	if st == nil {
		return 0
	}
	return st.units[0].tree.Height()
}

// InsertContext is Insert with a context bounding the merge-ingest
// near-duplicate probe (Options.Ingest): when the context is cancelled
// before the probe finishes, the insert is abandoned with the context's
// error and the tree is unchanged. Outside merge-ingest mode the context
// is not consulted — the mutation itself is not cancellable once started,
// because aborting a half-applied page write would corrupt the tree.
func (t *Tree) InsertContext(ctx context.Context, v Vector) error {
	return t.insert(ctx, v)
}

// KMLIQContext is KMostLikely with cancellation and per-query statistics:
// when ctx is cancelled the traversal stops promptly and returns ctx.Err()
// along with the statistics accumulated so far. Queries from any number of
// goroutines may run concurrently — and concurrently with writers: each
// query pins the snapshot published by the last committed mutation and
// never takes the tree lock.
func (t *Tree) KMLIQContext(ctx context.Context, q Vector, k int) ([]Match, QueryStats, error) {
	return t.kmliq(ctx, q, k)
}

// KMLIQRankedContext is KMostLikelyRanked with cancellation and per-query
// statistics.
func (t *Tree) KMLIQRankedContext(ctx context.Context, q Vector, k int) ([]Match, QueryStats, error) {
	return t.ranked(ctx, q, k)
}

// TIQContext is Threshold with cancellation and per-query statistics.
func (t *Tree) TIQContext(ctx context.Context, q Vector, pTheta float64) ([]Match, QueryStats, error) {
	return t.tiq(ctx, q, pTheta)
}

// Posterior computes the exact identification probabilities P(vᵢ|q) of a
// candidate-complete vector set under uniform priors, without an index —
// the paper's general solution (§4). It is the reference implementation the
// index is tested against.
func Posterior(c Combiner, db []Vector, q Vector) []float64 {
	return pfv.Posterior(c, db, q)
}

// JointLogDensity returns ln p(q|v), the joint log density of the paper's
// Lemma 1 for two probabilistic feature vectors.
func JointLogDensity(c Combiner, v, q Vector) float64 {
	return pfv.JointLogDensity(c, v, q)
}
