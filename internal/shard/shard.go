// Package shard is the query coordinator: an Engine partitions probabilistic
// feature vectors across N independent core trees and answers every
// identification query over their cursors — shard 0 on the calling
// goroutine, one goroutine for each of the others, context-aware, first
// error cancels the siblings. A single tree is the engine at N = 1: no
// goroutine, no peers, one round, page for page the paper's algorithm.
//
// The merge is the interesting part. The paper's identification probability
// P(v|q) = p(q|v) / Σ_w p(q|w) is a global quantity: its Bayes denominator
// sums over the ENTIRE database, so per-shard probabilities are meaningless
// on their own — each shard's denominator is too small and its
// "probabilities" too large. What §5.2.2's n·ˇN/n·ˆN sum bounds make
// possible is an additive repair: every shard traversal certifies an
// interval around its own denominator contribution (exact log-density sum
// over scored objects plus floor/hull bounds over unexplored subtrees), the
// coordinator combines the per-shard parts by log-sum-exp into one global
// denominator interval, and candidate densities divided by that interval
// are certified exactly as a single tree over the union of the data would
// certify them. When the merged interval is still too wide to decide a
// threshold or meet an accuracy target, the coordinator resumes the shard
// cursors (core.Cursor) with a geometrically shrinking unexplored-mass
// budget — and feeds each shard the certified denominator mass of its
// peers, which tightens local pruning beyond what any stand-alone tree
// could do (core.DenomParts says why that budget is always reachable; the
// loop is coordinate).
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

var _ query.Engine = (*Engine)(nil)

// Stats extends the engine-agnostic query statistics with the sharded
// execution profile: the aggregated counters (embedded, elementwise sums
// with EarlyTermination ORed) plus the per-shard breakdown and the number of
// cross-shard denominator merge rounds the query needed (1 = the per-shard
// certification targets were sufficient on the first pass).
type Stats struct {
	query.Stats
	PerShard    []query.Stats
	MergeRounds int
}

// Engine is a sharded Gauss-tree: N independent core trees over disjoint
// data partitions, queried as one. It implements query.Engine; the Detail
// variants additionally expose per-shard statistics.
//
// Queries may run concurrently from any number of goroutines. Mutations
// require external exclusion against queries and each other, exactly like
// core.Tree — the public façade holds the lock.
type Engine struct {
	trees []*core.Tree
	part  Partitioner
	name  string
}

// New builds a sharded engine over the given trees (one per shard). All
// trees must share dimensionality and σ-combiner — probabilities merged
// across shards are only meaningful when every shard scores densities the
// same way.
func New(trees []*core.Tree, part Partitioner) (*Engine, error) {
	if len(trees) == 0 {
		return nil, errors.New("shard: need at least one shard")
	}
	dim, cfg := trees[0].Dim(), trees[0].Config()
	for i, t := range trees[1:] {
		if t.Dim() != dim {
			return nil, fmt.Errorf("shard: shard %d has dimension %d, shard 0 has %d", i+1, t.Dim(), dim)
		}
		if t.Config().Combiner != cfg.Combiner {
			return nil, fmt.Errorf("shard: shard %d combiner %v differs from shard 0's %v", i+1, t.Config().Combiner, cfg.Combiner)
		}
	}
	return &Engine{trees: trees, part: part, name: fmt.Sprintf("gauss-tree-%dshard", len(trees))}, nil
}

// Name identifies the engine in engine-agnostic reports.
func (e *Engine) Name() string { return e.name }

// NumShards returns the number of shards.
func (e *Engine) NumShards() int { return len(e.trees) }

// Dim returns the feature dimensionality.
func (e *Engine) Dim() int { return e.trees[0].Dim() }

// Len returns the total number of stored vectors across all shards.
func (e *Engine) Len() int {
	n := 0
	for _, t := range e.trees {
		n += t.Len()
	}
	return n
}

// Insert routes one vector to its shard.
func (e *Engine) Insert(v pfv.Vector) error {
	return e.trees[e.part.Place(v, len(e.trees))].Insert(v)
}

// InsertAll routes a batch, loading the per-shard groups concurrently, and
// returns how many vectors each shard applied — its whole group, or on error
// the prefix of the group it got through: shards fail independently, so the
// applied set may be a non-prefix subset of vs. Like core.Tree.InsertAll it
// awaits no log.
func (e *Engine) InsertAll(vs []pfv.Vector) ([]int, error) {
	groups := Split(e.part, vs, len(e.trees))
	applied := make([]int, len(e.trees))
	err := fanOut(len(e.trees), noCancel, func(i int) (err error) {
		applied[i], err = e.trees[i].InsertAll(groups[i])
		return err
	})
	return applied, err
}

// BulkLoad partitions the vector set and bulk-loads every shard
// concurrently (all shards must be empty).
func (e *Engine) BulkLoad(vs []pfv.Vector) error {
	groups := Split(e.part, vs, len(e.trees))
	return fanOut(len(e.trees), noCancel, func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return e.trees[i].BulkLoad(groups[i])
	})
}

// Delete removes one stored copy of the exact vector from the shard that
// owns its id; no other shard is read.
func (e *Engine) Delete(v pfv.Vector) (bool, error) {
	return e.trees[e.part.Place(v, len(e.trees))].Delete(v)
}

// ForEach visits every stored vector, shard by shard.
func (e *Engine) ForEach(fn func(pfv.Vector) error) error {
	for _, t := range e.trees {
		if err := t.ForEach(fn); err != nil {
			return err
		}
	}
	return nil
}

// noCancel is fanOut's cancel for mutations, which have no context to
// cancel: each shard's work completes or fails on its own.
func noCancel() {}

// fanOut runs f(i) for every shard — shard 0 on the calling goroutine, the
// others on one goroutine each, so one shard costs no goroutine — under a
// shared cancellable context: the first failing shard cancels its siblings
// (errgroup-style), and the returned error is the root cause, not a
// sibling's ctx.Canceled. The cancellable context must already be threaded
// into whatever f touches (the cursors are created with it); cancel is
// called on first error.
func fanOut(n int, cancel context.CancelFunc, f func(i int) error) error {
	if n == 1 {
		return f(0)
	}
	errs := make([]error, n)
	run := func(i int) {
		if errs[i] = f(i); errs[i] != nil {
			cancel()
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	run(0)
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			return err // the root cause, not collateral cancellation
		}
	}
	return first
}

// shardState is one shard's side of a coordinated query: its cursor, the
// denominator parts it certified in the last round, and the certified mass
// of its peers it is given in the next.
type shardState struct {
	cur     *core.Cursor
	parts   core.DenomParts
	peerLow float64
}

// mergeParts combines per-shard denominator components by log-sum-exp. All
// three components are additive across disjoint data partitions, so the
// merged parts bound the global Bayes denominator exactly as one tree over
// the union of the data would; the parts of one shard are the merge.
func mergeParts(shards []shardState) core.DenomParts {
	n := len(shards)
	if n == 1 {
		return shards[0].parts
	}
	buf := make([]float64, 3*n)
	ex, fl, hu := buf[:n], buf[n:2*n], buf[2*n:]
	for i, sh := range shards {
		ex[i], fl[i], hu[i] = sh.parts.LogExact, sh.parts.LogFloor, sh.parts.LogHull
	}
	return core.DenomParts{
		LogExact: gaussian.LogSumExpSlice(ex),
		LogFloor: gaussian.LogSumExpSlice(fl),
		LogHull:  gaussian.LogSumExpSlice(hu),
	}
}

// peerLowOf returns the log-sum-exp of every shard's certified denominator
// lower bound except shard i's own (−Inf at one shard: no peers, no mass).
func peerLowOf(shards []shardState, i int) float64 {
	lows := make([]float64, 0, len(shards)-1)
	for j, sh := range shards {
		if j != i {
			lows = append(lows, sh.parts.LogLow())
		}
	}
	return gaussian.LogSumExpSlice(lows)
}

// collectStats aggregates the per-shard statistics.
func collectStats(per []query.Stats, rounds int) Stats {
	s := Stats{PerShard: per, MergeRounds: rounds}
	for _, p := range per {
		s.Stats = s.Stats.Add(p)
	}
	return s
}

// KMLIQRanked fans the ranked query out to every shard and merges the local
// top-k lists by log density — the global top-k is always contained in the
// union of the per-shard top-k sets, so no denominator work is needed.
func (e *Engine) KMLIQRanked(ctx context.Context, q pfv.Vector, k int) ([]query.Result, query.Stats, error) {
	res, st, err := e.KMLIQRankedDetail(ctx, q, k)
	return res, st.Stats, err
}

// KMLIQRankedDetail is KMLIQRanked with per-shard statistics.
func (e *Engine) KMLIQRankedDetail(ctx context.Context, q pfv.Vector, k int) ([]query.Result, Stats, error) {
	n := len(e.trees)
	ctx, cancel := siblingContext(ctx, n)
	defer cancel()
	perRes := make([][]query.Result, n)
	perStats := make([]query.Stats, n)
	err := fanOut(n, cancel, func(i int) error {
		res, st, err := e.trees[i].KMLIQRanked(ctx, q, k)
		perRes[i], perStats[i] = res, st
		return err
	})
	stats := collectStats(perStats, 1)
	if err != nil {
		return nil, stats, err
	}
	all := perRes[0]
	for _, rs := range perRes[1:] {
		all = append(all, rs...)
	}
	query.SortByDensity(all)
	if len(all) > k {
		all = all[:k]
	}
	return query.NonNil(all), stats, nil
}

// siblingContext derives the context whose cancellation stops a failing
// shard's siblings; one shard has none, and runs on the caller's context.
func siblingContext(ctx context.Context, n int) (context.Context, context.CancelFunc) {
	if n == 1 {
		return ctx, func() {}
	}
	return context.WithCancel(ctx)
}

// KMLIQ answers a k-most-likely identification query with certified
// probabilities (§5.2.2) across all shards. The global top-k by density is
// contained in the union of the per-shard top-k sets, so ranking is settled
// after the first round; probabilities come from the merged denominator
// interval, and when that interval leaves some reported probability wider
// than the accuracy, the coordinator resumes the shard cursors with an
// unexplored-mass budget computed from exactly the certification that is
// missing (see coordinate).
func (e *Engine) KMLIQ(ctx context.Context, q pfv.Vector, k int, accuracy float64) ([]query.Result, query.Stats, error) {
	res, st, err := e.KMLIQDetail(ctx, q, k, accuracy)
	return res, st.Stats, err
}

// KMLIQDetail is KMLIQ with per-shard statistics and merge-round counts.
func (e *Engine) KMLIQDetail(ctx context.Context, q pfv.Vector, k int, accuracy float64) ([]query.Result, Stats, error) {
	open := func(ctx context.Context, t *core.Tree) (*core.Cursor, error) { return t.OpenKMLIQ(ctx, q, k, accuracy) }
	// The merged top-k are the answer; it is certified once every interval
	// is within accuracy. The densest candidate has the widest interval, so
	// the next budget is computed for it.
	decide := func(cands []core.Candidate, merged core.DenomParts) ([]core.Candidate, bool, float64) {
		core.SortCandidates(cands)
		if len(cands) > k {
			cands = cands[:k]
		}
		for _, c := range cands {
			if lo, hi := merged.ProbInterval(c.LogDensity); accuracy > 0 && hi-lo > accuracy {
				return cands, false, cands[0].LogDensity
			}
		}
		return cands, true, 0
	}
	return e.coordinate(ctx, accuracy, open, decide)
}

// TIQ answers a threshold identification query across all shards. Unlike
// k-MLIQ, threshold decisions cannot be finished shard-locally at all: extra
// denominator mass from the other shards can push a locally-qualifying
// candidate below the threshold. Candidates whose merged upper bound falls
// below it are dropped for good; the loop ends when every survivor is
// certified at or above it (and, if accuracy > 0, within accuracy), or when
// every shard is exhausted and the denominator is exact.
func (e *Engine) TIQ(ctx context.Context, q pfv.Vector, pTheta float64, accuracy float64) ([]query.Result, query.Stats, error) {
	res, st, err := e.TIQDetail(ctx, q, pTheta, accuracy)
	return res, st.Stats, err
}

// TIQDetail is TIQ with per-shard statistics and merge-round counts.
func (e *Engine) TIQDetail(ctx context.Context, q pfv.Vector, pTheta float64, accuracy float64) ([]query.Result, Stats, error) {
	open := func(ctx context.Context, t *core.Tree) (*core.Cursor, error) {
		return t.OpenTIQ(ctx, q, pTheta, accuracy)
	}
	// A candidate certified below the threshold is out (its cursor prunes it
	// next round); the rest are the answer once each is certified at or
	// above the threshold and within accuracy. The next budget is computed
	// for the densest candidate still undecided.
	decide := func(cands []core.Candidate, merged core.DenomParts) ([]core.Candidate, bool, float64) {
		kept, decided, ldUndecided := cands[:0], true, math.Inf(-1)
		for _, c := range cands {
			lo, hi := merged.ProbInterval(c.LogDensity)
			if hi < pTheta {
				continue
			}
			if lo < pTheta || (accuracy > 0 && hi-lo > accuracy) {
				decided = false
				ldUndecided = max(ldUndecided, c.LogDensity)
			}
			kept = append(kept, c)
		}
		return kept, decided, ldUndecided
	}
	return e.coordinate(ctx, accuracy, open, decide)
}

// coordinate is the one query loop behind KMLIQ and TIQ: open a cursor per
// shard, then round by round fan a Refine out, merge the shards' denominator
// parts, let the query type decide its candidates against the merged
// interval, and — while some decision is still open — resume with a smaller
// unexplored-mass budget. The query type supplies open, which starts its
// cursor on one tree, and decide, which reduces the gathered candidates to
// the answer's, reports whether all of them are certified, and if not names
// the log density the next budget has to certify.
//
// The first round costs what the unsharded query costs: the budget is +Inf
// and every shard runs to its query type's own stop test. At one shard that
// is all there is: the cursor has no peers, its stop test is the paper's
// (core.Cursor), the merged parts are its parts, and what it certified
// decides every candidate in round one — a one-shard engine is the
// stand-alone query, page for page.
func (e *Engine) coordinate(
	ctx context.Context, accuracy float64,
	open func(context.Context, *core.Tree) (*core.Cursor, error),
	decide func([]core.Candidate, core.DenomParts) (kept []core.Candidate, decided bool, logDensity float64),
) ([]query.Result, Stats, error) {
	n := len(e.trees)
	ctx, cancel := siblingContext(ctx, n)
	defer cancel()
	shards := make([]shardState, n)
	// Cursors hold pooled traversal state and a snapshot pin; hand both back
	// when the query is done (including on partial construction and error
	// paths — the return values are evaluated before the deferred closes).
	defer func() {
		for _, sh := range shards {
			if sh.cur != nil {
				sh.cur.Close()
			}
		}
	}()
	for i, t := range e.trees {
		c, err := open(ctx, t)
		if err != nil {
			return nil, Stats{}, err
		}
		if n > 1 {
			c.AsShard(i)
		}
		shards[i] = shardState{cur: c, peerLow: math.Inf(-1)}
	}
	stats := func(rounds int) Stats {
		per := make([]query.Stats, n)
		for i, sh := range shards {
			per[i] = sh.cur.Stats()
		}
		return collectStats(per, rounds)
	}
	work := func() (pages, nodes, scored int64) {
		for _, sh := range shards {
			st := sh.cur.Stats()
			pages, nodes, scored = pages+int64(st.PageAccesses), nodes+int64(st.NodesVisited), scored+int64(st.VectorsScored)
		}
		return
	}
	// With peers, a traced query gets one merge_round span per round (the
	// aggregated fan-out + merge work) over the cursors' own per-shard
	// *_refine spans; alone, the cursor's span is the query's.
	var tr *obs.Trace
	if n > 1 {
		tr = obs.TraceFrom(ctx)
	}

	budget := math.Inf(1)
	refine := func(i int) error { return shards[i].cur.Refine(budget, shards[i].peerLow) }
	var cands []core.Candidate
	visited := int64(-1)
	for rounds := 1; ; rounds++ {
		roundSp := tr.Begin(work())
		if err := fanOut(n, cancel, refine); err != nil {
			return nil, stats(rounds), err
		}

		exhausted, maxHull := true, math.Inf(-1)
		for i := range shards {
			sh := &shards[i]
			sh.parts = sh.cur.DenomParts()
			exhausted = exhausted && sh.cur.Exhausted()
			maxHull = max(maxHull, sh.parts.LogHull)
		}
		merged := mergeParts(shards)
		// Push each shard the certified mass of its peers, pruning the
		// candidates that can no longer qualify globally.
		cands = cands[:0]
		for i := range shards {
			sh := &shards[i]
			sh.peerLow = peerLowOf(shards, i)
			cands = sh.cur.Candidates(cands, sh.peerLow)
		}
		kept, decided, logDensity := decide(cands, merged)
		pages, nodes, scored := work()
		tr.End(roundSp, "merge_round", -1, rounds, pages, nodes, scored)
		// A round that expanded no node anywhere cannot tighten anything
		// either — every queued subtree carries zero hull mass, the merged
		// interval is as good as exhaustion would make it — and the still
		// certified intervals are accepted rather than spun on.
		if decided || exhausted || nodes == visited {
			return core.Results(kept, merged), stats(rounds), nil
		}
		visited = nodes
		// Halve the worst shard's unexplored mass each round — a threshold
		// decision may need arbitrarily tight intervals (the unsharded
		// engine's exactness), and the geometric shrink reaches any
		// tightness, bottoming out at full exhaustion (exact denominator).
		// An accuracy target gives a sharper budget. The gap high−low is
		// bounded by the total unexplored hull mass, so bounding that mass
		// bounds every width:
		//	width(ld) = e^ld·(H−L)/(L·H) ≤ e^ld·Σⱼhullⱼ/(L·H) ≤ accuracy
		// ⇔ Σⱼhullⱼ ≤ accuracy·L·H/e^ld,
		// computed for the density decide named, split evenly across shards
		// with a factor-2 safety margin. Take whichever is smaller.
		budget = maxHull - math.Ln2
		if accuracy > 0 {
			budget = min(budget, math.Log(accuracy)+merged.LogLow()+merged.LogHigh()-logDensity-math.Log(float64(2*n)))
		}
	}
}
