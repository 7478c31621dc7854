// Package gausstree implements the Gauss-tree of Böhm, Pryakhin and
// Schubert ("The Gauss-Tree: Efficient Object Identification in Databases of
// Probabilistic Feature Vectors", ICDE 2006): a balanced R-tree-family index
// over the parameter space (μᵢ, σᵢ) of probabilistic feature vectors,
// supporting the paper's two identification query types —
//
//   - k-most-likely identification queries (k-MLIQ): the k database objects
//     with the highest Bayesian probability P(v|q) of describing the same
//     real-world object as the probabilistic query vector q;
//   - threshold identification queries (TIQ): every database object whose
//     identification probability reaches a threshold Pθ.
//
// A probabilistic feature vector (pfv) models an uncertain observation: each
// feature value μᵢ carries a standard deviation σᵢ, turning the object into
// an axis-aligned multivariate Gaussian. Identification probabilities follow
// from Bayes' rule over the joint densities p(q|v) = ∏ᵢ N(μv,ᵢ, σv,ᵢ⊕σq,ᵢ)(μq,ᵢ)
// (the paper's Lemma 1). Queries are answered exactly — the index prunes
// with conservative hull/floor bounds and guarantees no false dismissals.
//
// This comment is the API contract. The README holds the rest: the on-disk
// layout, the leaf-format table, how the sharded merge works, the serving
// and observability surface, the measured performance and the census of
// every option with what justifies it. cmd/gaussbench prints the paper's §6
// tables: -exp fig1, fig6a, fig6b, fig7ds1, fig7ds2, headline, ablations or
// all, and -quick for smoke sizes.
//
// # Quick start
//
//	tree, _ := gausstree.New(2)
//	tree.Insert(gausstree.MustVector(1, []float64{1.0, 2.0}, []float64{0.1, 0.2}))
//	tree.Insert(gausstree.MustVector(2, []float64{4.0, 0.5}, []float64{0.3, 0.1}))
//
//	q := gausstree.MustVector(0, []float64{1.1, 1.9}, []float64{0.2, 0.2})
//	matches, _ := tree.KMostLikely(q, 1)
//	fmt.Println(matches[0].Vector.ID, matches[0].Probability)
//
// # Queries
//
// KMostLikely and Threshold report, per match, the probability and a
// certified interval [ProbLow, ProbHigh] that contains the true Bayes
// posterior, no wider than Options.Accuracy on exact leaves; no qualifying
// object is ever dismissed. KMostLikelyRanked ranks without computing
// probabilities (NaN, encoded as JSON null) and reads the fewest pages.
// Every query has a context-aware variant — KMLIQContext,
// KMLIQRankedContext, TIQContext — that honors cancellation and deadlines
// and returns a QueryStats record: logical page accesses (the paper's
// efficiency metric), expanded nodes, scored vectors, early termination.
// The plain methods are those with context.Background(). Arguments are
// validated before any traversal starts: k < 1, thresholds outside (0, 1]
// and dimension mismatches return a wrapped ErrInvalidQuery. A query that
// matches nothing returns an empty, never nil, slice. Results are copies the
// caller owns.
//
// # Persistence and durability
//
// With Options.Path the index lives in a durable page file, reattached with
// Open; page size, σ-combiner, split objective, leaf format and tree
// geometry come from the file, never from the reopening caller. New refuses
// a path that already holds an index.
//
//	tree, _ := gausstree.New(2, gausstree.Options{Path: "objects.gtree"})
//	tree.BulkLoad(vectors)
//	tree.Close()
//
//	re, _ := gausstree.Open("objects.gtree")
//	matches, _ := re.KMostLikely(q, 5) // byte-identical to pre-Close results
//
// Mutations are shadow-paged (copy-on-write node rewrites sealed by a
// double-buffered, checksummed meta commit) and individually made durable
// by a group-commit write-ahead log (<path>.wal): Insert, Delete and
// InsertAll (one record per vector) return once their records are fsynced,
// and none of them holds the writer lock while it waits, so every mutation
// that arrived within Options.CommitLatency shares the fsync. BulkLoad, Sync
// and Close checkpoint. A process killed at any point reopens to a
// commit-consistent tree holding every acknowledged mutation; on error
// InsertAll returns how much of the batch lies at or below the log's
// durable horizon — on a Tree the exact prefix a crash would recover.
// WALStats reports the log's counters.
//
// # Concurrency
//
// Tree and Sharded are safe for concurrent use. Reads are snapshot-isolated
// and take no lock: a query pins an immutable root snapshot and traverses
// the tree version committed when it started, while writers — exclusive
// among themselves — copy-on-write their path and publish a new root with
// one atomic store. Freed pages, like the page images a file-backed index
// recycles, are reused only once every reader that could still reach them
// has finished (one grace period for both), so a long ForEach never blocks,
// and is never torn by, concurrent mutations. SnapshotEpoch counts published
// commits; OldestPinnedEpoch is a lower bound on the oldest pinned reader's
// epoch. A page is
// held once, as an immutable image that the page store, the buffer cache and
// the cached leaves viewing it share; nothing a query returns refers to it.
//
// # Leaf formats
//
// Options.LeafFormat selects the on-page leaf encoding when an index is
// built; it is persisted and restored by Open and OpenSharded. LeafExact
// (default) stores columnar float64. LeafFloat32 and LeafGrid8 store lossy
// leaves plus exact sidecar pages: ranked answers are identical to the exact
// format's and no object is dismissed, but a certified interval may be wider
// than the requested accuracy (it always contains the truth). Open refuses an
// index written in the pre-columnar row-major layout, before reading any of
// its pages, with an error naming that layout.
//
// # Sharding
//
// The paper's sum bounds (§5.2.2) are additive over disjoint partitions, so
// an index is any number of Gauss-trees and a single tree is the one-shard
// case. Tree and Sharded share one implementation of everything but the file
// layout: New keeps one page file, NewSharded n of them under the directory
// Options.Path (reattached with OpenSharded). Per-shard denominator
// intervals are merged by log-sum-exp before any probability is reported, so
// probabilities and their certified bounds are exactly what a single tree
// over all the data would report; a one-shard Sharded answers bit-identically
// to a Tree at equal cost.
//
//	idx, _ := gausstree.NewSharded(3, 4, gausstree.Options{Path: "idx-dir"})
//	idx.BulkLoad(vectors)
//	matches, stats, _ := idx.KMLIQContext(ctx, q, 5)  // stats.PerShard, stats.MergeRounds
//
// A shard is a subtree: BulkLoad cuts the set by parameter space with the
// bulk loader's own first cuts, Insert goes to the shard whose root box needs
// the least enlargement, Delete probes the shards whose root box contains the
// vector, and a query reads a shard only while its root box's bounds leave
// something undecided (stats.PerShard: 0 pages = skipped). ShardLens shows how
// evenly the data spread. Gauges and counters (SnapshotEpoch, Stats,
// WALStats, Scrub) are sums over shards. Options.Ingest (online merge-ingest: an observation
// within IngestOptions.MergeDistance of the most likely stored Gaussian is
// folded into it by moment matching; SweepExpired retires fingerprints
// unseen for IngestOptions.TTL) is supported by Tree only.
//
// # Errors and faults
//
// Sentinels, all tested with errors.Is: ErrInvalidQuery and
// ErrInvalidOptions (arguments), ErrClosed, ErrPoisoned, ErrCorrupt,
// ErrInjected, ErrInvalidSchedule. A storage fault during a mutation poisons the index against
// further writes instead of leaving it half-applied: mutations return errors
// wrapping ErrPoisoned while reads keep serving the last committed snapshot,
// and closing and reopening the file replays the WAL — the same path, and
// the same resulting state, as recovery from a crash. Scrub re-reads every
// reachable page past the cache and runs CheckInvariants' structural check
// over what it read, then re-verifies the durable WAL prefix; findings wrap
// ErrCorrupt.
// Options.Fault interposes an armable fault-injection layer whose errors
// wrap ErrInjected.
//
// # Serving
//
// cmd/gaussd serves any durable index over HTTP/JSON with admission control,
// per-request deadlines, a batch endpoint, metrics, traces, a self-healing
// degraded mode and a background scrubber; the client package is its Go
// client and returns the same result types and sentinel errors as the
// in-process API. Match and Vector own the stable JSON encodings of that
// wire format.
package gausstree
