package gausstree

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/fault"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/shard"
	"github.com/gauss-tree/gausstree/internal/wal"
)

// unit is one partition of an index: a core Gauss-tree over its own page
// manager and, when file-backed, its own write-ahead log. The paper's
// §5.2.2 sum bounds are additive over disjoint partitions, so an index is
// any number of units: Tree lays out one, Sharded n.
type unit struct {
	tree  *core.Tree
	mgr   *pagefile.Manager
	wal   *wal.Log // nil for memory-backed units
	label string   // prefix of this unit's errors; see unitFiles
}

// unitFiles names where one unit lives — its page file and write-ahead log,
// both empty for a memory-backed unit — and the prefix its errors carry
// ("shard 3: "; empty for a Tree, which has nothing to tell apart). The
// on-disk layout is the only thing the constructors of Tree and Sharded
// decide differently.
type unitFiles struct{ page, wal, label string }

// createUnit builds one empty unit: backend → fault layer → page manager →
// core tree → write-ahead log. A page file that already holds an index is
// refused by pagefile.CreateFile.
func createUnit(f unitFiles, dim, cacheBytes int, o Options) (unit, error) {
	var backend pagefile.Backend
	if f.page != "" {
		fb, err := pagefile.CreateFile(f.page, o.PageSize)
		if err != nil {
			return unit{}, err
		}
		backend = fb
	} else {
		backend = pagefile.NewMemBackend(o.PageSize)
	}
	u, err := newUnit(f, backend, o.PageSize, cacheBytes, o)
	if err != nil {
		return unit{}, err
	}
	u.tree, err = core.New(u.mgr, dim, core.Config{Combiner: o.Combiner, LeafFormat: o.LeafFormat})
	if err == nil && f.wal != "" {
		if u.wal, err = wal.Create(f.wal, dim, walOptions(o)); err == nil {
			err = u.tree.SetWAL(u.wal)
		}
	}
	if err != nil {
		u.release()
		return unit{}, err
	}
	return u, nil
}

// openUnit reattaches one persisted unit and replays its write-ahead-log
// tail over the last committed checkpoint. The page size comes from the
// file header, the dimension and build configuration from the meta record.
func openUnit(f unitFiles, cacheBytes int, o Options) (unit, error) {
	fb, err := pagefile.OpenFile(f.page)
	if err != nil {
		return unit{}, err
	}
	u, err := newUnit(f, fb, fb.PageSize(), cacheBytes, o)
	if err != nil {
		return unit{}, err
	}
	if u.tree, err = core.Open(u.mgr); err == nil {
		var tail []wal.Record
		u.wal, tail, err = wal.Open(f.wal, u.tree.Dim(), u.tree.AppliedLSN(), walOptions(o))
		if err == nil {
			if err = u.tree.ApplyWALTail(tail); err == nil {
				// SetWAL truncates the log: the replayed tail is now folded
				// into the committed meta record.
				err = u.tree.SetWAL(u.wal)
			}
		}
	}
	if err != nil {
		// Not close(): checkpointing a half-replayed tree would commit it.
		u.release()
		return unit{}, err
	}
	return u, nil
}

// newUnit puts the fault layer and a page manager over backend; it owns
// (and on failure closes) the backend. All units of an index share the one
// injector, so a schedule's counters and fault caps aggregate across them.
func newUnit(f unitFiles, backend pagefile.Backend, pageSize, cacheBytes int, o Options) (unit, error) {
	mgr, err := pagefile.NewManager(fault.WrapBackend(backend, o.Fault), pageSize, pagefile.WithCacheBytes(cacheBytes))
	if err != nil {
		backend.Close()
		return unit{}, err
	}
	return unit{mgr: mgr, label: f.label}, nil
}

func walOptions(o Options) wal.Options {
	return wal.Options{Interval: o.CommitLatency, Fault: walFault(o.Fault)}
}

// wrap prefixes err with the unit's label; the result still matches the
// cause with errors.Is.
func (u unit) wrap(err error) error {
	if err == nil || u.label == "" {
		return err
	}
	return fmt.Errorf("%s%w", u.label, err)
}

// close folds the log tail into the meta record, so the next open skips
// replay, and releases the unit. A checkpoint failure is not data loss —
// every acknowledged mutation is already fsynced in the log and will be
// replayed — so it does not fail the close.
func (u unit) close() error {
	if u.wal != nil {
		u.tree.Checkpoint()
	}
	return u.release()
}

// release closes the unit's log and page manager without checkpointing.
func (u unit) release() error {
	var errs []error
	if u.wal != nil {
		if err := u.wal.Close(); err != nil {
			errs = append(errs, u.wrap(err))
		}
	}
	if err := u.mgr.Close(); err != nil {
		errs = append(errs, u.wrap(err))
	}
	return errors.Join(errs...)
}

func releaseUnits(units []unit) {
	for _, u := range units {
		u.release()
	}
}

// state is what an open index publishes: its units and the shard engine
// over their trees, which routes mutations by parameter space and
// coordinates the queries. It sits behind an atomic pointer so that readers
// never take a lock: queries load the state, pin each tree's current root
// snapshot and run entirely against immutable pages, concurrently with any
// writer.
type state struct {
	units []unit
	eng   *shard.Engine
}

// index is the one implementation behind Tree and Sharded. Both embed it,
// so its exported methods are their methods; what the two types add is the
// file layout their constructors choose and how much of a query's
// statistics their *Context methods return (Tree the aggregate, Sharded the
// per-shard breakdown too).
type index struct {
	mu   sync.Mutex // serializes mutations and Close; never held by reads
	st   atomic.Pointer[state]
	opts Options
	ing  *ingester // non-nil in merge-ingest mode (Options.Ingest, Tree only)
}

// ErrClosed is returned by operations on a closed tree.
var ErrClosed = errors.New("gausstree: tree is closed")

// start publishes units as the index's live state.
func (x *index) start(units []unit, o Options) error {
	trees := make([]*core.Tree, len(units))
	for i, u := range units {
		trees[i] = u.tree
	}
	eng, err := shard.New(trees, shard.HashByID())
	if err != nil {
		return err
	}
	x.opts = o
	x.st.Store(&state{units: units, eng: eng})
	return nil
}

// state returns the live state or ErrClosed. It is the lock-free entry
// point of every read operation.
func (x *index) state() (*state, error) {
	st := x.st.Load()
	if st == nil {
		return nil, ErrClosed
	}
	return st, nil
}

// queryState is state plus a query's argument checks: the vector against
// the index's dimension, and argErr, the verdict on its second argument.
func (x *index) queryState(q Vector, argErr error) (*state, error) {
	st, err := x.state()
	if err == nil {
		err = errors.Join(checkQueryVector(q, st.eng.Dim()), argErr)
	}
	return st, err
}

// KMostLikely answers a k-most-likely identification query (the paper's
// k-MLIQ, Definition 3): the k objects with the highest identification
// probability P(v|q), with probabilities certified to the configured
// accuracy — across shards, by the merged denominator interval. Results are
// ordered by descending probability. It is KMLIQContext without
// cancellation or statistics.
func (x *index) KMostLikely(q Vector, k int) ([]Match, error) {
	//lint:ignore ctxflow KMostLikely is the documented context-free compat API; the Context form is the bounded one.
	ms, _, err := x.kmliq(context.Background(), q, k)
	return ms, err
}

// KMostLikelyRanked answers a k-MLIQ without computing probability values
// (the paper's basic algorithm, §5.2.1). It touches the fewest pages — and
// needs no denominator merge, the global density order being the merge of
// the per-shard orders; the returned matches carry log densities and NaN
// probabilities. It is KMLIQRankedContext without cancellation or
// statistics.
func (x *index) KMostLikelyRanked(q Vector, k int) ([]Match, error) {
	//lint:ignore ctxflow KMostLikelyRanked is the documented context-free compat API; the Context form is the bounded one.
	ms, _, err := x.ranked(context.Background(), q, k)
	return ms, err
}

// Threshold answers a threshold identification query (the paper's TIQ,
// Definition 2): every object with P(v|q) ≥ pTheta, decided exactly — across
// shards, by iterative refinement of the merged denominator. Results are
// ordered by descending probability. It is TIQContext without cancellation
// or statistics.
func (x *index) Threshold(q Vector, pTheta float64) ([]Match, error) {
	//lint:ignore ctxflow Threshold is the documented context-free compat API; the Context form is the bounded one.
	ms, _, err := x.tiq(context.Background(), q, pTheta)
	return ms, err
}

// kmliq, ranked and tiq are the one query path: argument checks, then the
// engine over however many shards the index has (one: the tree's own query).
// They return the query's statistics; Sharded's Context methods ask the
// engine for the per-shard breakdown instead (shard.Engine's Detail
// queries), which a Tree does without.
func (x *index) kmliq(ctx context.Context, q Vector, k int) ([]Match, QueryStats, error) {
	st, err := x.queryState(q, checkK(k))
	if err != nil {
		return nil, QueryStats{}, err
	}
	return st.eng.KMLIQ(ctx, q, k, x.opts.Accuracy)
}

func (x *index) ranked(ctx context.Context, q Vector, k int) ([]Match, QueryStats, error) {
	st, err := x.queryState(q, checkK(k))
	if err != nil {
		return nil, QueryStats{}, err
	}
	return st.eng.KMLIQRanked(ctx, q, k)
}

func (x *index) tiq(ctx context.Context, q Vector, pTheta float64) ([]Match, QueryStats, error) {
	st, err := x.queryState(q, checkPTheta(pTheta))
	if err != nil {
		return nil, QueryStats{}, err
	}
	return st.eng.TIQ(ctx, q, pTheta, x.opts.Accuracy)
}

// Dim returns the feature dimensionality of the index (0 after Close).
func (x *index) Dim() int {
	st := x.st.Load()
	if st == nil {
		return 0
	}
	return st.eng.Dim()
}

// Len returns the number of stored vectors as of the current published
// snapshots, summed over all shards (0 after Close).
func (x *index) Len() int {
	st := x.st.Load()
	if st == nil {
		return 0
	}
	return st.eng.Len()
}

// ShardLens returns the number of stored vectors shard by shard (one entry
// for a Tree, none after Close): a partition by parameter space follows the
// data, and this is where a hot cluster piled onto one shard shows.
func (x *index) ShardLens() []int {
	st := x.st.Load()
	if st == nil {
		return nil
	}
	return st.eng.Counts()
}

// LeafFormat returns the leaf storage format the index writes (restored
// from the page files on Open and OpenSharded).
func (x *index) LeafFormat() LeafFormat {
	st := x.st.Load()
	if st == nil {
		return LeafExact
	}
	return st.units[0].tree.LeafFormat()
}

// SnapshotEpoch returns the reclamation epoch of the currently published
// root snapshot, summed over all shards. It advances by one per committed
// mutation; monitoring it (gaussd exposes it via /v1/stats) shows write
// progress without touching any lock.
func (x *index) SnapshotEpoch() uint64 {
	var sum uint64
	for _, u := range x.units() {
		sum += u.tree.SnapshotEpoch()
	}
	return sum
}

// PinnedReaders returns the number of outstanding snapshot-reader epoch
// pins — queries (and unclosed cursors) currently blocking page
// reclamation — summed over all shards. Exposed by gaussd as the
// gausstree_pinned_readers gauge.
func (x *index) PinnedReaders() int {
	n := 0
	for _, u := range x.units() {
		n += u.mgr.PinnedReaders()
	}
	return n
}

// OldestPinnedEpoch returns a lower bound on the reclamation epoch of the
// longest-running pinned reader — the epoch at which the oldest reader
// generation still holding a pin began — or the current epoch when no
// reader is pinned, summed over all shards like SnapshotEpoch. The gap to
// SnapshotEpoch bounds how far page reclamation lags behind publishing — a
// stuck or leaked cursor shows up as a growing gap (0 when nothing is
// pinned anywhere).
func (x *index) OldestPinnedEpoch() uint64 {
	var sum uint64
	for _, u := range x.units() {
		sum += u.mgr.OldestPin()
	}
	return sum
}

// LimboPages returns the number of freed pages awaiting reclamation, summed
// over all shards.
func (x *index) LimboPages() int {
	n := 0
	for _, u := range x.units() {
		n += u.mgr.LimboPages()
	}
	return n
}

// units returns the live units, or none after Close — the documented zero
// of every summed gauge.
func (x *index) units() []unit {
	st := x.st.Load()
	if st == nil {
		return nil
	}
	return st.units
}

// WALStats are cumulative write-ahead-log counters; see Tree.WALStats.
type WALStats struct {
	// Fsyncs is the number of log fsyncs issued.
	Fsyncs uint64
	// Records is the number of logical records appended.
	Records uint64
	// MeanGroupSize is Records per fsync: how many mutations each
	// group commit amortized (0 before the first fsync).
	MeanGroupSize float64
	// AppendedLSN is the log sequence number of the last appended record;
	// AppendedLSN − DurableLSN is the durability lag of the group-commit
	// window.
	AppendedLSN uint64
	// DurableLSN is the highest log sequence number known fsynced.
	DurableLSN uint64
}

// WALStats reports write-ahead-log counters of a file-backed index: total
// fsyncs, total appended records, their ratio (the mean group-commit batch
// size — the central metric of the group-commit write path), and the
// highest appended and durable LSNs (their gap is the group-commit window
// still awaiting fsync). Counters are summed over all shards; the LSNs are
// the highest per-shard values, since LSN sequences are per shard. ok is
// false for memory-backed or closed indexes.
func (x *index) WALStats() (ws WALStats, ok bool) {
	for _, u := range x.units() {
		if u.wal == nil {
			continue
		}
		ok = true
		w := u.wal.Stats()
		ws.Fsyncs += w.Fsyncs
		ws.Records += w.Records
		ws.AppendedLSN = max(ws.AppendedLSN, w.AppendedLSN)
		ws.DurableLSN = max(ws.DurableLSN, w.DurableLSN)
	}
	if ws.Fsyncs > 0 {
		ws.MeanGroupSize = float64(ws.Records) / float64(ws.Fsyncs)
	}
	return ws, ok
}

// Insert adds a probabilistic feature vector to the index — of a sharded
// one, to the shard whose root box needs the least enlargement to take it
// (the tree's own path selection, one level up; an empty shard first), so a
// shard stays a region of parameter space that queries elsewhere can skip.
// Duplicate ids are permitted (several observations of the same object may
// coexist); Delete removes one matching copy.
//
// Durability: on a file-backed index Insert returns once its record is
// fsynced in the write-ahead log — concurrent mutations share that fsync
// (group commit, see Options.CommitLatency) — and the tree pages
// themselves are checkpointed periodically, on Sync and on Close. On a
// memory-backed index in-memory commit is immediate. If a mutation fails
// mid-flight (an I/O error, not input validation), the index refuses all
// further mutations to protect the committed state; Close it and reattach
// with Open or OpenSharded to recover every acknowledged mutation. This
// applies to Insert, InsertAll, BulkLoad and Delete alike.
//
// In merge-ingest mode (Options.Ingest) Insert may instead fold v into an
// existing near-duplicate stored Gaussian; see IngestOptions.
func (x *index) Insert(v Vector) error {
	//lint:ignore ctxflow Insert is the documented context-free compat API; Tree.InsertContext is the bounded form.
	return x.insert(context.Background(), v)
}

func (x *index) insert(ctx context.Context, v Vector) error {
	return x.mutate(func(st *state) error {
		if x.ing != nil {
			return x.ing.insert(ctx, v)
		}
		return st.eng.Insert(v)
	}, v)
}

// mutate is the one mutation path of the façade: take the writer lock, load
// the live state, check the vectors against its dimension, apply, release the
// lock, and only then await the group commit — so concurrent mutations join
// the same fsync and none can hold the lock across one. The wait runs even
// when apply failed: a batch that died mid-way has a logged prefix to settle.
func (x *index) mutate(apply func(*state) error, vs ...Vector) error {
	x.mu.Lock()
	st := x.st.Load()
	if st == nil {
		x.mu.Unlock()
		return ErrClosed
	}
	err := checkMutationVectors(vs, st.eng.Dim())
	if err != nil {
		x.mu.Unlock()
		return err
	}
	err = apply(st)
	x.mu.Unlock()
	if werr := x.waitDurable(st); err == nil {
		err = werr
	}
	return err
}

// waitDurable awaits the group-commit fsync of the last mutation on every
// unit (instant for units whose log is already flushed, and for
// memory-backed ones). It is called after releasing the writer lock so
// concurrent mutations can join the same group commits. When the wait
// reveals a dead write-ahead log, that unit is poisoned right away, under
// the writer lock. The core would poison it anyway on the next mutation
// (whose log append sees the sticky failure), but poisoning here makes the
// public contract uniform: every mutation after the first one that hits a
// storage fault fails wrapping ErrPoisoned, whether the fault surfaced at
// append time or only at the group fsync.
func (x *index) waitDurable(st *state) error {
	var errs []error
	for _, u := range st.units {
		err := u.tree.WaitDurable()
		if err == nil {
			continue
		}
		errs = append(errs, u.wrap(err))
		if errors.Is(err, wal.ErrFailed) {
			x.mu.Lock()
			u.tree.Poison(err)
			x.mu.Unlock()
		}
	}
	return errors.Join(errs...)
}

// InsertAll adds a batch of vectors, loading the per-shard groups
// concurrently, and returns how many of them are durably applied. On
// success that is len(vs). On error the batch may have been applied
// partially. On a Tree the returned count is the length of the prefix
// vs[:n] that is both applied and durable — a crash and reopen after
// InsertAll returns (n, err) recovers a tree containing exactly vs[:n] of
// this batch (plus everything committed before it); the remaining vectors
// were not applied and may be retried. On a Sharded the durable set is a
// per-shard union, not a prefix of vs: each shard applies its own group in
// order, so retrying the whole batch after an error may re-insert some
// vectors (duplicates are permitted and can be Deleted).
//
// InsertAll always inserts verbatim; merge-ingest mode (Options.Ingest)
// only affects Insert.
func (x *index) InsertAll(vs []Vector) (int, error) {
	// Under the lock each unit logs its share of the batch under contiguous
	// LSNs, (first, last]; what the wait leaves at or below the unit's durable
	// horizon is the share a crash cannot take back.
	var units []unit
	var first, last []uint64
	var applied []int
	err := x.mutate(func(st *state) (err error) {
		units, first = st.units, lastLSNs(st.units)
		applied, err = st.eng.InsertAll(vs)
		last = lastLSNs(units)
		if x.ing != nil {
			for _, v := range vs[:applied[0]] {
				x.ing.track(v)
			}
		}
		return err
	}, vs...)
	if err == nil {
		return len(vs), nil
	}
	n := 0
	for i, u := range units {
		if u.wal == nil {
			n += applied[i] // memory-backed: committed as it was applied
			continue
		}
		// A checkpoint advances the horizon too; later batches push it past last.
		n += int(min(max(u.wal.Stats().DurableLSN, first[i]), last[i]) - first[i])
	}
	return n, err
}

// lastLSNs reads every unit's most recently logged LSN (writer lock held).
func lastLSNs(units []unit) []uint64 {
	lsns := make([]uint64, len(units))
	for i, u := range units {
		lsns[i] = u.tree.LastLSN()
	}
	return lsns
}

// BulkLoad builds the index from a vector set in one pass, cutting it by
// parameter space with the bulk loader's own first cuts — one spatially
// coherent group per shard — and loading all shards concurrently (every
// shard must be empty).
// Bulk-loaded trees have near-full pages and are both faster to build and
// faster to query than insertion-built ones. BulkLoad commits a full
// checkpoint per shard: it is durable on return without writing the WAL.
func (x *index) BulkLoad(vs []Vector) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	st := x.st.Load()
	if st == nil {
		return ErrClosed
	}
	if err := checkMutationVectors(vs, st.eng.Dim()); err != nil {
		return err
	}
	if err := st.eng.BulkLoad(vs); err != nil {
		return err
	}
	if x.ing != nil {
		return x.ing.seed()
	}
	return nil
}

// Delete removes one stored copy of the exact vector (id, means and sigmas
// must all match) and reports whether one was found; a sharded index probes
// the shards whose root box contains the vector, in order, up to the first
// that finds it. Like Insert it is acknowledged once its WAL record is
// durable.
func (x *index) Delete(v Vector) (found bool, err error) {
	err = x.mutate(func(st *state) (err error) {
		found, err = st.eng.Delete(v)
		if found && err == nil && x.ing != nil {
			x.ing.forget(v.ID)
		}
		return err
	}, v)
	return found, err
}

// Stats reports the I/O counters of the underlying page managers, summed
// over all shards. Like every other operation it reports ErrClosed after
// Close.
func (x *index) Stats() (pagefile.Stats, error) {
	st, err := x.state()
	if err != nil {
		return pagefile.Stats{}, err
	}
	var sum pagefile.Stats
	for _, u := range st.units {
		sum = sum.Add(u.mgr.Stats())
	}
	return sum, nil
}

// ResetStats zeroes the I/O counters. It reports ErrClosed after Close.
func (x *index) ResetStats() error {
	st, err := x.state()
	if err != nil {
		return err
	}
	for _, u := range st.units {
		u.mgr.ResetStats()
	}
	return nil
}

// CheckInvariants verifies the structural invariants of the index against
// the current published snapshot of every shard; intended for tests and
// debugging. It runs concurrently with writers without blocking them.
func (x *index) CheckInvariants() error {
	st, err := x.state()
	if err != nil {
		return err
	}
	for _, u := range st.units {
		if err := u.tree.CheckInvariants(); err != nil {
			return u.wrap(err)
		}
	}
	return nil
}

// ForEach visits every stored vector, shard by shard; each shard
// contributes one commit-consistent snapshot.
func (x *index) ForEach(fn func(Vector) error) error {
	st, err := x.state()
	if err != nil {
		return err
	}
	return st.eng.ForEach(fn)
}

// Sync is an explicit durability barrier: it checkpoints every write-ahead
// log into its tree's committed meta record (truncating the log) and
// flushes the page files. Mutations are already durable when they return —
// Sync only bounds the recovery replay work and frees log space.
func (x *index) Sync() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	st := x.st.Load()
	if st == nil {
		return ErrClosed
	}
	var errs []error
	for _, u := range st.units {
		err := u.tree.Checkpoint()
		if err == nil {
			err = u.mgr.Sync()
		}
		if err != nil {
			errs = append(errs, u.wrap(err))
		}
	}
	return errors.Join(errs...)
}

// Quarantine makes the index permanently write-inert without closing it:
// every tree is poisoned (mutations and checkpoints refuse wrapping
// ErrPoisoned, keeping any earlier poisoning cause) and every write-ahead
// log is failed, so neither can ever again write to or truncate the
// underlying files. Reads keep serving the last published snapshots.
//
// It exists for live recovery: before reopening the same files under a
// fresh index (Open and OpenSharded replay the WAL), the serving layer
// quarantines the old instance so the two can safely coexist until the old
// one is Closed. Quarantining a closed index is a no-op.
func (x *index) Quarantine(cause error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, u := range x.units() {
		u.tree.Poison(cause)
		if u.wal != nil {
			u.wal.Fail(cause)
		}
	}
}

// Close checkpoints the write-ahead logs, flushes the underlying storage to
// disk and releases it. The index is unusable afterwards; a file-backed one
// can be reattached with Open or OpenSharded. Queries still in flight when
// Close is called fail with a storage-closed error — drain readers first if
// that matters (gaussd does).
func (x *index) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	st := x.st.Swap(nil)
	if st == nil {
		return nil
	}
	var errs []error
	for _, u := range st.units {
		errs = append(errs, u.close())
	}
	return errors.Join(errs...)
}
