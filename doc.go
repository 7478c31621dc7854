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
// # Persistence
//
// With Options.Path the index lives in a durable page file and every
// mutation is crash-safely committed before it returns; Open reattaches a
// persisted index, restoring page size, σ-combiner and tree geometry from
// the file itself:
//
//	tree, _ := gausstree.New(2, gausstree.Options{Path: "objects.gtree"})
//	tree.BulkLoad(vectors)
//	tree.Close()
//
//	re, _ := gausstree.Open("objects.gtree")
//	matches, _ := re.KMostLikely(q, 5) // byte-identical to pre-Close results
//
// The storage engine shadow-pages every mutation (copy-on-write node
// rewrites sealed by a double-buffered, checksummed meta commit), so a
// process killed at any point reopens to the tree as of its last
// acknowledged Insert, InsertAll, Delete or BulkLoad. New refuses a path
// that already holds an index; Sync offers an explicit flush barrier. See
// the README's "Persistence & file format" section for the on-disk layout.
//
// # Write path & snapshots
//
// Reads are snapshot-isolated and take no lock: a query pins an immutable
// root snapshot plus the current reclamation epoch and traverses the tree
// version committed when it started, while writers copy-on-write their
// path and publish a new root with one atomic pointer store. Pages freed at
// epoch E are recycled only once the epoch has moved past E and no reader
// pins an epoch <= E, so a long ForEach never blocks — and is never torn
// by — concurrent mutations. SnapshotEpoch reports the monotone count of
// published commits.
//
// Durability of individual mutations on a file-backed tree comes from a
// group-commit write-ahead log (<path>.wal): each Insert/Delete appends one
// logical, CRC-protected record (frame: length, LSN, type, vector payload,
// CRC32-C) and returns once the record is fsynced. A committer goroutine
// batches every record arriving within Options.CommitLatency (default 2ms)
// into a single fsync, so concurrent writers share one disk barrier;
// WALStats reports fsyncs, records and the realized mean group size. Every
// 2048 records the log is folded into a meta commit and truncated, bounding
// recovery replay. Open replays the intact WAL tail on top of the last
// checkpoint — torn or corrupt tails are truncated at the last valid frame —
// so a crash at any point (including kill -9 mid-group-commit) recovers a
// commit-consistent tree containing every acknowledged mutation. On error,
// InsertAll returns the exact durably-applied prefix length.
//
// For continuous observation streams, Options.Ingest enables online
// merge-ingest: an Insert whose observation lies within a normalized
// Mahalanobis radius (IngestOptions.MergeDistance) of the most likely
// stored Gaussian is folded into it by moment matching instead of growing
// the tree, and SweepExpired retires fingerprints unseen for
// IngestOptions.TTL. IngestStats counts inserts, merges and sweeps;
// examples/sensornet runs the loop end to end.
//
// # Leaf formats
//
// Options.LeafFormat selects the on-page leaf encoding at build time; the
// choice is persisted in the index meta record and restored by Open and
// OpenSharded (gaussd's -leaf-format flag asserts the expected format at
// serving time and /v1/stats reports it):
//
//	LeafExact     columnar float64 (default): means and sigmas as contiguous
//	              per-dimension arrays plus a precomputed per-vector
//	              −ln ∏σᵢ term, scored by a vectorizable batch evaluator
//	              that is bit-identical to the scalar density
//	LeafFloat32   quantized: float32 parameters, ~2× smaller leaves
//	LeafGrid8     quantized: 8-bit cells on per-dimension uniform grids
//	              (VA-file style), ~8× smaller leaf payloads
//	LeafLegacyRow row-major float64 (the pre-columnar v1 layout), kept
//	              writable for compatibility testing
//
// The quantized formats stay exact where it matters: every stored value is
// decoded to a conservative interval verified at encode time to contain the
// exact value, hull/floor pruning uses those widened intervals (so the
// no-false-dismissal guarantee of the paper holds unchanged), and surviving
// candidates are re-scored from an exact float64 sidecar page — ranked
// answers are identical to the exact format's. The one honest difference:
// certified probability intervals can be wider than the requested accuracy,
// because leaves pruned without a sidecar visit contribute an irreducible
// quantization residue to the §5.2.2 denominator bounds; the reported
// [ProbLow, ProbHigh] always contains the true probability. Migration: a
// leaf format is fixed when the index is built — to change it, rebuild the
// index (ForEach streams the vectors out); indexes written before the
// columnar format decode unchanged, and mutations rewrite touched leaves in
// the tree's configured format page by page.
//
// # Query processing
//
// Every query is one best-first traversal (§5.2): subtrees wait in a queue
// ordered by their hull bound ˆN(q), leaf objects are scored exactly, and
// probability-reporting queries (k-MLIQ, TIQ) keep a certified interval
// around the Bayes denominator — the exact sum of everything scored plus the
// n·ˇN / n·ˆN sum bounds of everything still queued (§5.2.2). Both are
// driven by one resumable cursor, which stops on one kernel: the interval
// is folded into two log-space bounds once per expansion, threshold
// tests are comparisons against them (ld − lnLow ≥ ln θ, with the exact
// exp-space form only within 1e-9 nats of the boundary, so no answer
// depends on the representation), and the width of every reported interval
// is certified by one test at the densest scored object.
//
// TIQ admits a scored object into its candidate set only if it can still
// reach θ against the lower denominator bound of the last stop test. That
// bound only grows, so an object below θ against any earlier value of it
// stays below θ for good: refusing it is as final as Figure 5's "delete
// unnecessary candidates" step, and a stale bound is merely conservative (it
// admits a few objects the next prune removes). The candidate set therefore
// holds the survivors, not every scored object.
//
// # Context-aware queries and statistics
//
// Every query has a context-aware variant — KMLIQContext, KMLIQRankedContext,
// TIQContext — that honors cancellation and deadlines and returns a
// QueryStats record with the query's logical page accesses (the paper's
// efficiency metric), expanded nodes, scored vectors and early-termination
// flag:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	matches, stats, err := tree.KMLIQContext(ctx, q, 3)
//	fmt.Println(stats.PageAccesses, stats.EarlyTermination)
//
// The plain methods (KMostLikely, KMostLikelyRanked, Threshold) are thin
// wrappers over these with context.Background().
//
// # Sharding
//
// The §5.2.2 sum bounds are additive over disjoint partitions, so an index
// is any number of Gauss-trees and a single tree is the one-partition case.
// Tree and Sharded share one implementation of everything but the file
// layout: New keeps one page file, NewSharded n of them under the directory
// Options.Path (reattached with OpenSharded). There is one query path,
// cursor → coordinator → façade: a cursor per shard runs the traversal to
// its query type's stop test and hands out candidates and its part of the
// denominator interval; the coordinator merges the parts by log-sum-exp
// into one global interval before any probability is reported — exactly
// the certification a single tree over all the data would produce — and,
// while a decision is still open, resumes the cursors with a smaller budget
// of unexplored mass. A Tree is the coordinator at one shard. Its cursor
// has no peers, which changes one thing in the stop test: a shard among
// several cannot certify a threshold candidate (its peers' mass is missing
// from every upper bound it knows) and stops once no subtree can qualify;
// alone, the cursor's bounds are the denominator's, so it stops on the
// paper's Figure 5 — weakest candidate certified, widths within accuracy —
// and the one round it takes is the paper's algorithm page for page, on
// the caller's goroutine:
//
//	idx, _ := gausstree.NewSharded(3, 4, gausstree.Options{Path: "idx-dir"})
//	idx.BulkLoad(vectors)
//	matches, stats, _ := idx.KMLIQContext(ctx, q, 5)  // stats.PerShard, stats.MergeRounds
//
// Options.Partition picks the mutation-routing policy (hash-by-id default,
// round-robin option); it is persisted in the shard manifest. Gauges and
// counters (SnapshotEpoch, Stats, WALStats, Scrub) are sums over shards.
//
// # Serving over the network
//
// The cmd/gaussd daemon serves any durable index (page file or sharded
// directory) over an HTTP/JSON API with admission control — a bounded
// in-flight set plus a bounded wait queue, 429 + Retry-After beyond that —
// per-request deadlines propagated into the context-aware query calls, a
// batch endpoint backed by the worker pool, and graceful drain on SIGTERM.
// The client package is its Go client: pooled connections, deadline
// propagation, retry-on-429 with jittered backoff, and the same result
// types and sentinel errors as the in-process API —
//
//	cl, _ := client.New("10.0.0.7:8442")
//	matches, stats, err := cl.KMLIQ(ctx, q, 3)    // []Match + QueryStats
//	if errors.Is(err, gausstree.ErrInvalidQuery) { ... }  // works remotely
//
// Match and Vector own stable JSON encodings for this wire format:
// lowercase keys, validated vector decoding, and NaN probabilities (ranked
// queries) encoded as null. Query arguments are validated at this public
// layer — k < 1, thresholds outside (0, 1], or dimension mismatches return
// a wrapped ErrInvalidQuery before any traversal starts — and queries that
// match nothing return empty (never nil) match slices, so the JSON layer
// serializes [] rather than null.
//
// # Observability
//
// The internal/obs package is a dependency-free observability kernel
// shared by every layer: Prometheus text-exposition metrics and pooled
// per-query traces. gaussd -ops-addr exposes GET /metrics alongside
// /debug/pprof/ on a loopback-only operations listener — request rates,
// latency histograms and admission pressure per endpoint, plus
// callback-backed engine series (buffer-cache effectiveness, WAL
// group-commit efficiency and durable-LSN lag, snapshot-epoch and
// pinned-reader health, merge-ingest activity) that read the engine's
// existing atomic counters at scrape time and cost the hot path nothing.
// With -trace-sample a fraction of requests carry a trace through
// executor, cursors and shard coordinator, recording spans (wall time
// plus page/node/scored-vector work, attributed to shards and merge
// rounds); -slow-query-ms logs any slower request the same way regardless
// of sampling, as single-line JSON to -slow-query-log. The wire format
// carries trace_id both ways: client.WithTraceID ties a daemon-side trace
// to the caller's own log, client.WithTraceIDCapture recovers the
// server-assigned id. Unsampled requests carry a nil trace whose every
// instrumentation point is a nil check, and the instruments themselves
// are pure atomics — a gausslint check (obsregister) keeps them
// lock-free, so they are safe even under the engine's shard locks.
//
// # Fault tolerance & degraded mode
//
// A storage fault during a mutation — a failed WAL append or fsync, a torn
// page, a bad meta write — poisons the index against further writes
// instead of leaving it half-applied: mutations return errors wrapping
// ErrPoisoned, while reads keep serving the last committed snapshot
// (shadow paging keeps committed pages immutable, so nothing partial is
// ever visible). Checkpoint refuses on a poisoned tree; the WAL's fsynced
// prefix still holds every acknowledged mutation, so closing and reopening
// the file replays it — recovery from a poisoned index is the same replay
// path as recovery from a crash, and lands on the same state.
//
// gaussd automates that loop in place. A storage fault flips the daemon to
// degraded (mutations 503 + Retry-After, reads unaffected, /readyz 503
// with the cause while /healthz stays 200); a recovery supervisor
// quarantines the failed index, reopens the file with WAL replay, and
// atomically swaps the healed index under the serving layer, backing off
// exponentially on failed attempts. An optional background scrubber
// (-scrub-interval, rate-limited by -scrub-rate) walks every reachable
// page bypassing the cache, re-verifies CRC trailers and node decoding,
// re-checksums the durable WAL prefix, and degrades the daemon the moment
// it finds rot; corruption findings wrap ErrCorrupt, and Tree.Scrub /
// Sharded.Scrub run the same pass programmatically. For rehearsing all of
// this against a live daemon, -chaos arms a runtime fault-injection layer
// driven over POST /debug/fault on the loopback ops listener (per-op
// probabilities, fault caps, torn writes, added latency, auto-expiry);
// injected errors wrap ErrInjected so harnesses can tell them from real
// faults, and the disarmed layer costs one atomic load per I/O. The
// client retries only rejected-before-execution responses (429 and
// 503-degraded, never poisoned or transport failures, bounded by a retry
// budget) and surfaces the window as ErrDegraded from Client.Ready.
//
// # Performance
//
// The hot read path — a query against a fully cached index — is lock-light,
// decode-free and allocation-free in steady state. One sharded cache sits
// under every query: the pagefile page cache, whose entry for a tree page
// holds the immutable decoded node in place of the page's bytes (per-shard
// LRU with one short lock per hit; the copy-on-write mutation path replaces
// or drops an entry exactly where it replaces or drops the bytes). A first
// touch is a backend read, a CRC check and one decode — a leaf into one
// backing array, an inner node with ln(count) precomputed per routing entry
// for the §5.2.2 sum bounds and its child boxes column-major (μ̌, μ̂, σ̌, σ̂
// as [dim][children] runs of one array; the page format stays row-major).
// Expanding an inner node is one call to a batch bound kernel that runs
// dimension-outer, child-inner over those columns and writes every child's
// log hull ˆN (Lemma 2, branch-free) and log floor ˇN (Lemma 3) into the
// traversal's scratch, one logarithm per bound per child; a quantized
// leaf's per-vector intervals go through the same kernel. It equals the
// scalar gaussian.HullTerm/FloorTerm bit for bit, so answers and page
// counts do not depend on it. Per-query traversal state — the best-first
// queue, top-k heap, denominator accumulators, page counter and a
// precomputed density evaluator — is pooled and reset between queries, so a
// cache-hit k-MLIQ performs a handful of allocations regardless of how many
// nodes it visits, plus one per returned vector (results are copies the
// caller owns). Page-access statistics are charged on every logical read
// either way, so the paper's efficiency metrics are unaffected.
//
// Tuning: Options.CacheBytes sets the page cache budget (default 50 MB, the
// paper's setup; gaussd -cache-mb) — decoded nodes included, one page each;
// the cache's shard count follows from it. gaussd -ops-addr exposes net/http/pprof beside /metrics on a
// loopback-only listener for profiling the serving hot path in place. The
// benchmark of record (BENCHMARK.json, ./benchmark) holds the measured
// numbers per workload and per layer; benchmark/README.md maps the earlier
// per-PR snapshots onto it.
//
// # Architecture
//
// The implementation is layered; each layer lives in its own internal
// package:
//
//	pfv       probabilistic feature vectors and Lemma-1 densities
//	pagefile  paged storage, buffer cache, I/O accounting (per-query
//	          Counter), durable file format, meta commits
//	core      the Gauss-tree itself over pagefile (shadow-paged mutations)
//	scan/vafile/xtree  competitor backends on the same substrate
//	query     the Engine interface all four backends implement,
//	          result types and the concurrent BatchExecutor
//	shard     the sharded engine: partitioners, concurrent fan-out,
//	          cross-shard Bayes-denominator merging over N core trees
//	eval      the experiment harness driving engines uniformly
//	fault     the one fault-injection layer, from crash tests to gaussd
//	          -chaos: armable per-op schedules over pagefile backend and WAL
//	wire      the HTTP/JSON wire format shared by daemon and client
//	server    the gaussd serving layer: endpoints, admission control,
//	          deadlines, batch execution, graceful drain, the degraded-
//	          mode supervisor and the background scrubber
//
// This package is the public façade: one index over core trees, routed by
// shard, under the names Tree and Sharded; the client package is the public
// façade over the wire format. It is safe for concurrent use: readers
// proceed in parallel, writers are exclusive.
package gausstree
