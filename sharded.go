package gausstree

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/gauss-tree/gausstree/internal/shard"
)

// ShardedQueryStats extends QueryStats with the sharded execution profile:
// the per-shard breakdown of the aggregated counters and the number of
// cross-shard denominator merge rounds the query needed (1 = the per-shard
// certification was sufficient on the first pass). It is an alias of the
// shard engine's stats type (its embedded query.Stats is QueryStats).
type ShardedQueryStats = shard.Stats

// shardedManifest is the tiny JSON descriptor a durable sharded index keeps
// next to its per-shard page files: everything OpenSharded needs that the
// shard files themselves do not record.
type shardedManifest struct {
	Version   int
	Shards    int
	Partition string
}

const shardedManifestName = "shards.json"

// A manifest names how its shards were cut. Directories are cut by parameter
// space (internal/shard): each shard is a subtree, and a query skips those
// whose root box cannot matter. The earlier routings — by a hash of the object
// id ("hash-id") and round-robin — are refused with rebuild advice: their
// root boxes all span everything, so no query could skip a shard.
const partitionParamSpace = "param-space"

// shardFiles is the sharded layout: shard i's page file and write-ahead
// log inside dir; an empty dir is a memory-backed shard.
func shardFiles(dir string, i int) unitFiles {
	f := unitFiles{label: fmt.Sprintf("shard %d: ", i)}
	if dir != "" {
		f.page = filepath.Join(dir, fmt.Sprintf("shard-%04d.gtree", i))
		f.wal = filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", i))
	}
	return f
}

// errShardedIngest rejects Options.Ingest on a sharded index: the
// near-duplicate probe and the in-place replace run on one tree.
var errShardedIngest = fmt.Errorf("%w: Options.Ingest is supported by New and Open only, not by sharded indexes", ErrInvalidOptions)

// Sharded is a Gauss-tree partitioned across n independent shards, each its
// own core tree (and, when durable, its own page file plus write-ahead
// log). Queries fan out to every shard concurrently and merge per-shard
// Bayes-denominator intervals by log-sum-exp, so probabilities and their
// certified bounds are exactly what a single tree over the union of the
// data would report. It is safe for concurrent use by multiple goroutines;
// as with Tree, queries run against pinned per-shard snapshots and never
// block on mutations.
//
// A Sharded is the n-partition layout of the index implementation it shares
// with Tree: a directory of per-shard files plus the shards.json manifest.
type Sharded struct {
	index
}

// NewSharded creates an empty sharded Gauss-tree with n shards for vectors
// of the given dimension. With Options.Path the index lives in a directory
// holding one durable page file and WAL per shard plus a manifest; a
// directory that already holds a sharded index is rejected (reattach with
// OpenSharded). Mutations are routed by parameter space: see Insert.
// Options.Ingest is rejected — merge-ingest mode is unsharded-only.
func NewSharded(dim, n int, opts ...Options) (*Sharded, error) {
	o := resolveOptions(opts)
	if n <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrInvalidOptions, n)
	}
	if o.Ingest != nil {
		return nil, errShardedIngest
	}

	dir := o.Path
	if dir != "" {
		if _, err := os.Stat(filepath.Join(dir, shardedManifestName)); err == nil {
			return nil, fmt.Errorf("gausstree: %s already holds a sharded index (use OpenSharded)", dir)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// No manifest means no create ever completed here (the manifest is
		// written last), so any shard files present are provably debris
		// from a crashed or failed NewSharded. Reclaim them — their
		// committed headers would otherwise make pagefile.CreateFile refuse
		// the path forever.
		debris, err := filepath.Glob(filepath.Join(dir, "shard-*.gtree"))
		if err != nil {
			return nil, err
		}
		logs, err := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
		if err != nil {
			return nil, err
		}
		for _, f := range append(debris, logs...) {
			if err := os.Remove(f); err != nil {
				return nil, err
			}
		}
	}

	units := make([]unit, 0, n)
	fail := func(err error) (*Sharded, error) {
		releaseUnits(units)
		if dir != "" {
			// Remove the partial layout so a retry starts clean instead of
			// tripping over committed shard files (every file here was
			// created by this call — debris was reclaimed above).
			for i := 0; i < n; i++ {
				f := shardFiles(dir, i)
				os.Remove(f.page)
				os.Remove(f.wal)
			}
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		u, err := createUnit(shardFiles(dir, i), dim, o.CacheBytes/n, o)
		if err != nil {
			return fail(err)
		}
		units = append(units, u)
	}
	s := &Sharded{}
	if err := s.start(units, o); err != nil {
		return fail(err)
	}
	if dir != "" {
		// The manifest is written last and atomically (temp file + rename):
		// its presence implies every shard file was created and committed,
		// so a crash mid-create leaves only reclaimable debris (see above),
		// never a torn index.
		m, err := json.Marshal(shardedManifest{Version: 1, Shards: n, Partition: partitionParamSpace})
		if err != nil {
			return fail(err)
		}
		tmp := filepath.Join(dir, shardedManifestName+".tmp")
		if err := os.WriteFile(tmp, m, 0o644); err != nil {
			return fail(err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, shardedManifestName)); err != nil {
			os.Remove(tmp)
			return fail(err)
		}
	}
	return s, nil
}

// OpenSharded reattaches a sharded Gauss-tree previously persisted in dir:
// the manifest restores the shard count, and each shard's page file restores
// its own page size, σ-combiner and tree geometry. A manifest naming a
// partition other than param-space (see partitionParamSpace) is refused
// before a shard file is touched. Recovery is crash-safe per shard
// exactly as with Open: each shard replays its own write-ahead-log tail over
// its last committed checkpoint. Options may tune the cache budget and
// probability accuracy; Options.Ingest is rejected as by NewSharded.
func OpenSharded(dir string, opts ...Options) (*Sharded, error) {
	o := resolveOptions(opts)
	o.Path = dir
	if o.Ingest != nil {
		return nil, errShardedIngest
	}

	raw, err := os.ReadFile(filepath.Join(dir, shardedManifestName))
	if err != nil {
		return nil, fmt.Errorf("gausstree: %s holds no sharded index manifest: %w", dir, err)
	}
	var m shardedManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("gausstree: corrupt sharded manifest: %w", err)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("gausstree: unsupported sharded manifest version %d", m.Version)
	}
	if m.Shards <= 0 {
		return nil, fmt.Errorf("gausstree: sharded manifest names %d shards", m.Shards)
	}
	if m.Partition != partitionParamSpace {
		return nil, fmt.Errorf("gausstree: sharded manifest names partition policy %q, only %q is supported: rebuild the index by loading its vectors into a fresh NewSharded directory (the release that wrote it reads them out with ForEach)", m.Partition, partitionParamSpace)
	}

	units := make([]unit, 0, m.Shards)
	fail := func(err error) (*Sharded, error) {
		releaseUnits(units)
		return nil, err
	}
	for i := 0; i < m.Shards; i++ {
		u, err := openUnit(shardFiles(dir, i), o.CacheBytes/m.Shards, o)
		if err != nil {
			return fail(err)
		}
		units = append(units, u)
	}
	s := &Sharded{}
	if err := s.start(units, o); err != nil {
		return fail(err)
	}
	return s, nil
}

// NumShards returns the number of shards (0 after Close).
func (s *Sharded) NumShards() int {
	return len(s.units())
}

// KMLIQContext is KMostLikely with cancellation and per-shard statistics.
// Like every query it runs lock-free against pinned per-shard snapshots,
// concurrently with mutations.
func (s *Sharded) KMLIQContext(ctx context.Context, q Vector, k int) ([]Match, ShardedQueryStats, error) {
	st, err := s.queryState(q, checkK(k))
	if err != nil {
		return nil, ShardedQueryStats{}, err
	}
	return st.eng.KMLIQDetail(ctx, q, k, s.opts.Accuracy)
}

// KMLIQRankedContext is KMostLikelyRanked with cancellation and per-shard
// statistics.
func (s *Sharded) KMLIQRankedContext(ctx context.Context, q Vector, k int) ([]Match, ShardedQueryStats, error) {
	st, err := s.queryState(q, checkK(k))
	if err != nil {
		return nil, ShardedQueryStats{}, err
	}
	return st.eng.KMLIQRankedDetail(ctx, q, k)
}

// TIQContext is Threshold with cancellation and per-shard statistics.
func (s *Sharded) TIQContext(ctx context.Context, q Vector, pTheta float64) ([]Match, ShardedQueryStats, error) {
	st, err := s.queryState(q, checkPTheta(pTheta))
	if err != nil {
		return nil, ShardedQueryStats{}, err
	}
	return st.eng.TIQDetail(ctx, q, pTheta, s.opts.Accuracy)
}
