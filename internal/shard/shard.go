// Package shard is the query coordinator: an Engine partitions probabilistic
// feature vectors across N independent core trees and answers every
// identification query over their cursors, context-aware, first error cancels
// the siblings. At N = 1 there is nothing to coordinate: the engine answers
// with its tree's own stand-alone query, and the coordinator starts at two.
//
// A shard is a subtree. The partition is by parameter space — BulkLoad cuts
// the set with the bulk loader's own first cuts, Insert goes where the tree's
// own path selection would send it — so a shard is what would hang under one
// root entry of the one tree over all the data, and a query treats it as §5.2
// treats any unexplored subtree: its root box bounds what it can hold (hull
// ˆN) and what it adds to the Bayes denominator (n·ˇN … n·ˆN), and it is read
// only while those bounds leave something undecided.
//
// The merge is the other half. The paper's identification probability
// P(v|q) = p(q|v) / Σ_w p(q|w) is a global quantity: its Bayes denominator
// sums over the ENTIRE database, so per-shard probabilities are meaningless
// on their own. What §5.2.2's sum bounds make possible is an additive repair:
// every shard traversal certifies an interval around its own denominator
// contribution (exact log-density sum over scored objects plus floor/hull
// bounds over unexplored subtrees — of a shard not yet read, its root), the
// coordinator combines the per-shard parts by log-sum-exp into one global
// denominator interval, and candidate densities divided by that interval are
// certified exactly as a single tree over the union of the data would certify
// them. While the merged interval is too wide to decide a threshold or meet
// an accuracy target, the coordinator resumes the cursors (core.Cursor) that
// hold the missing certainty with a geometrically shrinking unexplored-mass
// budget, and tells each what the others found (core.Peers), which tightens
// local pruning beyond what any stand-alone tree could do (core.DenomParts
// says why that budget is always reachable; the loop is coordinate).
package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
// Queries may run concurrently from any number of goroutines, mutations
// beside them; mutations require external exclusion against each other,
// exactly like core.Tree — the public façade holds the lock.
type Engine struct {
	trees []*core.Tree
	name  string
}

// Partitioner is the empty value New's signature carries: there is one
// routing, by parameter space. HashByID returns it; the name is kept for
// callers that still pass it.
type Partitioner struct{}

func HashByID() Partitioner { return Partitioner{} }

// New builds a sharded engine over the given trees (one per shard). All
// trees must share dimensionality and σ-combiner — probabilities merged
// across shards are only meaningful when every shard scores densities the
// same way.
func New(trees []*core.Tree, _ Partitioner) (*Engine, error) {
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
	return &Engine{trees: trees, name: fmt.Sprintf("gauss-tree-%dshard", len(trees))}, nil
}

// Name identifies the engine in engine-agnostic reports.
func (e *Engine) Name() string { return e.name }

// NumShards returns the number of shards.
func (e *Engine) NumShards() int { return len(e.trees) }

// Dim returns the feature dimensionality.
func (e *Engine) Dim() int { return e.trees[0].Dim() }

// Len returns the total number of stored vectors across all shards.
func (e *Engine) Len() (n int) {
	for _, t := range e.trees {
		n += t.Len()
	}
	return n
}

// checkDims refuses what routing cannot look at (the trees would, too late).
func (e *Engine) checkDims(vs ...pfv.Vector) error {
	for i, v := range vs {
		if v.Dim() != e.Dim() {
			return fmt.Errorf("%w: vector %d has dimension %d, index dimension %d", core.ErrDimension, i, v.Dim(), e.Dim())
		}
	}
	return nil
}

// place routes vs, in order, each to the shard whose root box needs the
// least enlargement to take it — the tree's own path selection one level up
// (core.LeastEnlargement) — against boxes that grow with every vector placed.
func (e *Engine) place(vs ...pfv.Vector) ([]int, error) {
	at := make([]int, len(vs))
	n := len(e.trees)
	if n == 1 {
		return at, nil
	}
	if err := e.checkDims(vs...); err != nil {
		return nil, err
	}
	boxes, counts := make([]core.ParamBox, n), make([]int, n)
	for i, t := range e.trees {
		var err error
		if boxes[i], counts[i], err = t.RootBox(); err != nil {
			return nil, err
		}
	}
	for j, v := range vs {
		i := core.LeastEnlargement(boxes, counts, v)
		if counts[i] == 0 {
			boxes[i] = core.BoxOf(v)
		} else {
			boxes[i].ExtendVector(v)
		}
		counts[i]++
		at[j] = i
	}
	return at, nil
}

// Insert adds one vector to the shard place names.
func (e *Engine) Insert(v pfv.Vector) error {
	at, err := e.place(v)
	if err != nil {
		return err
	}
	return e.trees[at[0]].Insert(v)
}

// InsertAll places a batch, loading the per-shard groups concurrently, and
// returns how many vectors each shard applied — its whole group, or on error
// the prefix of the group it got through: shards fail independently, so the
// applied set may be a non-prefix subset of vs. Like core.Tree.InsertAll it
// awaits no log.
func (e *Engine) InsertAll(vs []pfv.Vector) ([]int, error) {
	applied := make([]int, len(e.trees))
	at, err := e.place(vs...)
	if err != nil {
		return applied, err
	}
	groups := make([][]pfv.Vector, len(e.trees))
	for j, v := range vs {
		groups[at[j]] = append(groups[at[j]], v)
	}
	err = fanOut(len(e.trees), noCancel, func(i int) (err error) {
		applied[i], err = e.trees[i].InsertAll(groups[i])
		return err
	})
	return applied, err
}

// BulkLoad cuts a copy of the vector set into one spatially coherent group per
// shard (core.Tree.Cuts) and bulk-loads every shard concurrently from its
// group, in place (all shards must be empty).
func (e *Engine) BulkLoad(vs []pfv.Vector) error {
	if err := e.checkDims(vs...); err != nil {
		return err
	}
	groups := e.trees[0].Cuts(vs, len(e.trees))
	return fanOut(len(e.trees), noCancel, func(i int) error { return e.trees[i].BulkLoadOwned(groups[i]) })
}

// Delete removes one stored copy of the exact vector: it probes the shards
// whose root box contains it, in order, up to the first that finds it.
func (e *Engine) Delete(v pfv.Vector) (bool, error) {
	if err := e.checkDims(v); err != nil {
		return false, err
	}
	for _, t := range e.trees {
		if len(e.trees) > 1 {
			box, count, err := t.RootBox()
			if err != nil {
				return false, err
			}
			if count == 0 || !box.ContainsVector(v) {
				continue
			}
		}
		if found, err := t.Delete(v); found || err != nil {
			return found, err
		}
	}
	return false, nil
}

// Counts returns the number of stored vectors shard by shard.
func (e *Engine) Counts() []int {
	counts := make([]int, len(e.trees))
	for i, t := range e.trees {
		counts[i] = t.Len()
	}
	return counts
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

// fanOut runs f(i) for i < n — f(0) on the calling goroutine, the others on
// one goroutine each, so one shard costs no goroutine — under a shared
// cancellable context: the first failing shard cancels its siblings
// (errgroup-style), and the returned error is the root cause, not a
// sibling's ctx.Canceled. The cancellable context must already be threaded
// into whatever f touches (the cursors are created with it); cancel is
// called on first error.
func fanOut(n int, cancel context.CancelFunc, f func(i int) error) error {
	switch n {
	case 0:
		return nil
	case 1:
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
// denominator parts it certified as of the last merge, what it is told of
// the other shards when it next resumes, and whether it is settled given that.
type shardState struct {
	cur     *core.Cursor
	parts   core.DenomParts
	peers   core.Peers
	settled bool
}

// mergeParts combines per-shard denominator components by log-sum-exp. All
// three components are additive across disjoint data partitions, so the
// merged parts bound the global Bayes denominator exactly as one tree over
// the union of the data would. buf is scratch for 3·len(shards) terms.
func mergeParts(shards []shardState, buf []float64) core.DenomParts {
	n := len(shards)
	ex, fl, hu := buf[:n], buf[n:2*n], buf[2*n:3*n]
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
// lower bound except shard i's own.
func peerLowOf(shards []shardState, i int, buf []float64) float64 {
	lows := buf[:0]
	for j, sh := range shards {
		if j != i {
			lows = append(lows, sh.parts.LogLow())
		}
	}
	return gaussian.LogSumExpSlice(lows)
}

// alone is a one-shard engine's detailed answer: its tree's stand-alone
// query, the tree's statistics as its one shard's, in one round. Only the
// Detail queries build that breakdown; KMLIQ, KMLIQRanked and TIQ return the
// tree's own statistics.
func alone(res []query.Result, st query.Stats, err error) ([]query.Result, Stats, error) {
	return res, Stats{Stats: st, PerShard: []query.Stats{st}, MergeRounds: 1}, err
}

// collectStats aggregates the per-shard statistics.
func collectStats(per []query.Stats, rounds int) Stats {
	s := Stats{PerShard: per, MergeRounds: rounds}
	for _, p := range per {
		s.Stats = s.Stats.Add(p)
	}
	return s
}

// KMLIQRanked answers the ranked query shard by shard and merges the local
// top-k lists by log density — the global top-k is always contained in the
// union of the per-shard top-k sets, so no denominator work is needed.
func (e *Engine) KMLIQRanked(ctx context.Context, q pfv.Vector, k int) ([]query.Result, query.Stats, error) {
	if len(e.trees) == 1 {
		return e.trees[0].KMLIQRanked(ctx, q, k)
	}
	res, st, err := e.KMLIQRankedDetail(ctx, q, k)
	return res, st.Stats, err
}

// KMLIQRankedDetail is KMLIQRanked with per-shard statistics. It is Figure 4
// one level up: a ranked cursor per shard, its root queued (AsShard), the
// shards taken in descending order of their root hull ˆN(q) (Cursor.Bound),
// each refined against the k-th best density gathered before it
// (core.Peers.LogKth), and the first whose hull cannot beat that ends the
// query — it and every shard after it stay unread. One shard is the tree's
// own ranked query.
func (e *Engine) KMLIQRankedDetail(ctx context.Context, q pfv.Vector, k int) ([]query.Result, Stats, error) {
	if len(e.trees) == 1 {
		return alone(e.trees[0].KMLIQRanked(ctx, q, k))
	}
	n := len(e.trees)
	curs, order := make([]*core.Cursor, n), make([]int, n)
	defer func() {
		for _, c := range curs {
			if c != nil {
				c.Close()
			}
		}
	}()
	stats := func() Stats {
		per := make([]query.Stats, n)
		for i, c := range curs {
			if c != nil {
				per[i] = c.Stats()
			}
		}
		return collectStats(per, 1)
	}
	for i, t := range e.trees {
		c, err := t.OpenKMLIQRanked(ctx, q, k)
		if err != nil {
			return nil, stats(), err
		}
		curs[i], order[i] = c, i
		if err := c.AsShard(i); err != nil {
			return nil, stats(), err
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(curs[b].Bound(), curs[a].Bound()) })
	var cands []core.Candidate
	peers := core.NoPeers()
	for _, i := range order {
		if len(cands) == k && peers.LogKth >= curs[i].Bound() { // k known: the rest cannot add to them
			break
		}
		if err := curs[i].Refine(1, math.Inf(1), peers); err != nil {
			return nil, stats(), err
		}
		cands = curs[i].Candidates(cands, math.Inf(-1))
		core.SortCandidates(cands)
		if len(cands) >= k {
			cands, peers.LogKth = cands[:k], cands[k-1].LogDensity
		}
	}
	return core.Ranked(cands), stats(), nil
}

// verdict is what a query type makes of the candidates gathered so far
// against the merged interval: the answer's candidates, whether every one is
// certified, and what the shards are told next (core.Peers): logKth, the
// density a subtree's hull must beat to hold a member of the answer (−Inf:
// any may), and logDensity, the densest candidate the next accuracy budget
// has to certify (−Inf: none to name).
type verdict struct {
	kept               []core.Candidate
	decided            bool
	logKth, logDensity float64
}

// KMLIQ answers a k-most-likely identification query with certified
// probabilities (§5.2.2) across all shards. The global top-k by density is
// contained in the union of the per-shard top-k sets; which shards can still
// add to it is decided by their hulls against the k-th best density gathered,
// probabilities come from the merged denominator interval, and while that
// leaves some reported probability wider than the accuracy, the coordinator
// resumes shard cursors with an unexplored-mass budget computed from exactly
// the certification that is missing (see coordinate).
func (e *Engine) KMLIQ(ctx context.Context, q pfv.Vector, k int, accuracy float64) ([]query.Result, query.Stats, error) {
	if len(e.trees) == 1 {
		return e.trees[0].KMLIQ(ctx, q, k, accuracy)
	}
	res, st, err := e.KMLIQDetail(ctx, q, k, accuracy)
	return res, st.Stats, err
}

// KMLIQDetail is KMLIQ with per-shard statistics and merge-round counts.
func (e *Engine) KMLIQDetail(ctx context.Context, q pfv.Vector, k int, accuracy float64) ([]query.Result, Stats, error) {
	if len(e.trees) == 1 {
		return alone(e.trees[0].KMLIQ(ctx, q, k, accuracy))
	}
	open := func(ctx context.Context, t *core.Tree) (*core.Cursor, error) { return t.OpenKMLIQ(ctx, q, k, accuracy) }
	// The merged top-k are the answer; it is certified once every interval
	// is within accuracy. The densest candidate has the widest interval, so
	// the next budget is computed for it.
	decide := func(cands []core.Candidate, merged core.DenomParts) verdict {
		core.SortCandidates(cands)
		v := verdict{kept: cands, decided: true, logKth: math.Inf(-1), logDensity: math.Inf(-1)}
		if len(cands) >= k {
			v.kept, v.logKth = cands[:k], cands[k-1].LogDensity
		}
		if len(v.kept) > 0 {
			v.logDensity = v.kept[0].LogDensity
		}
		for _, c := range v.kept {
			if lo, hi := merged.ProbInterval(c.LogDensity); accuracy > 0 && hi-lo > accuracy {
				v.decided = false
				break
			}
		}
		return v
	}
	return e.coordinate(ctx, accuracy, open, decide)
}

// TIQ answers a threshold identification query across all shards. Unlike
// k-MLIQ, threshold decisions cannot be finished shard-locally at all: extra
// denominator mass from the other shards can push a locally-qualifying
// candidate below the threshold. Candidates whose merged upper bound falls
// below it are dropped for good; the loop ends when every survivor is
// certified at or above it (and, if accuracy > 0, within accuracy) and no
// shard's unexplored part can still reach it, or when every shard is
// exhausted and the denominator is exact.
func (e *Engine) TIQ(ctx context.Context, q pfv.Vector, pTheta float64, accuracy float64) ([]query.Result, query.Stats, error) {
	if len(e.trees) == 1 {
		return e.trees[0].TIQ(ctx, q, pTheta, accuracy)
	}
	res, st, err := e.TIQDetail(ctx, q, pTheta, accuracy)
	return res, st.Stats, err
}

// TIQDetail is TIQ with per-shard statistics and merge-round counts.
func (e *Engine) TIQDetail(ctx context.Context, q pfv.Vector, pTheta float64, accuracy float64) ([]query.Result, Stats, error) {
	if len(e.trees) == 1 {
		return alone(e.trees[0].TIQ(ctx, q, pTheta, accuracy))
	}
	open := func(ctx context.Context, t *core.Tree) (*core.Cursor, error) {
		return t.OpenTIQ(ctx, q, pTheta, accuracy)
	}
	// A candidate certified below the threshold is out (its cursor prunes it
	// next round); the rest are the answer once each is certified at or
	// above the threshold and within accuracy. The next budget is computed
	// for the densest candidate still undecided.
	decide := func(cands []core.Candidate, merged core.DenomParts) verdict {
		v := verdict{kept: cands[:0], decided: true, logKth: math.Inf(-1), logDensity: math.Inf(-1)}
		for _, c := range cands {
			lo, hi := merged.ProbInterval(c.LogDensity)
			if hi < pTheta {
				continue
			}
			if lo < pTheta || (accuracy > 0 && hi-lo > accuracy) {
				v.decided = false
				v.logDensity = max(v.logDensity, c.LogDensity)
			}
			v.kept = append(v.kept, c)
		}
		return v
	}
	return e.coordinate(ctx, accuracy, open, decide)
}

// coordinate is the one query loop behind KMLIQ and TIQ over two or more
// shards. It opens a cursor per shard (open) — each with its root queued, so
// before anything is read a shard's denominator parts are the bounds of its
// root box — and then, round by round, resumes the shards that can still
// matter, merges all shards' parts, lets the query type decide its candidates
// against the merged interval (decide, see verdict), and — while a decision
// is still open — goes on with a smaller unexplored-mass budget.
//
// Which shards a round resumes is §5.2's pruning one level up. The first
// takes only those holding at least half of the largest root hull mass, where
// the query most likely lives, each to its own stop test. From then on a
// shard is resumed when its unexplored hull mass exceeds the round's budget
// or it is not settled: some subtree of it could still hold a member of the
// answer, judged against what all shards gathered (core.Peers). A shard that
// is neither runs on no goroutine, and one never resumed is never read: its
// root bounds stay in the merge, which is why the answer stands only once
// every shard is settled — a skipped shard ran no stop test of its own.
func (e *Engine) coordinate(
	ctx context.Context, accuracy float64,
	open func(context.Context, *core.Tree) (*core.Cursor, error),
	decide func([]core.Candidate, core.DenomParts) verdict,
) ([]query.Result, Stats, error) {
	n := len(e.trees)
	ctx, cancel := context.WithCancel(ctx) // stops a failing shard's siblings
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
	maxHull := math.Inf(-1)
	for i, t := range e.trees {
		c, err := open(ctx, t)
		if err != nil {
			return nil, Stats{}, err
		}
		shards[i] = shardState{cur: c, peers: core.NoPeers()}
		if err := c.AsShard(i); err != nil {
			return nil, Stats{}, err
		}
		shards[i].parts = c.DenomParts()
		maxHull = max(maxHull, shards[i].parts.LogHull)
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
	// A traced query gets one merge_round span per round (the aggregated
	// fan-out + merge work) over the per-shard *_refine spans of the cursors
	// resumed in it.
	tr := obs.TraceFrom(ctx)

	budget := math.Inf(1)
	var cands []core.Candidate
	var resumed []int
	scratch := make([]float64, 3*n) // of mergeParts and peerLowOf
	visited := int64(-1)
	for rounds := 1; ; rounds++ {
		resumed = resumed[:0]
		for i := range shards {
			sh := &shards[i]
			switch {
			case rounds == 1:
				if sh.parts.LogHull < maxHull-math.Ln2 {
					continue
				}
			case sh.parts.LogHull <= budget && sh.settled:
				continue
			}
			resumed = append(resumed, i)
		}
		roundSp := tr.Begin(work())
		rs, b := resumed, budget // for the closure to capture by value, not as two heap variables
		err := fanOut(len(rs), cancel, func(j int) error {
			sh := &shards[rs[j]]
			return sh.cur.Refine(rounds, b, sh.peers)
		})
		if err != nil {
			return nil, stats(rounds), err
		}

		exhausted := true
		maxHull = math.Inf(-1)
		for i := range shards {
			sh := &shards[i]
			sh.parts = sh.cur.DenomParts()
			exhausted = exhausted && sh.cur.Exhausted()
			maxHull = max(maxHull, sh.parts.LogHull)
		}
		merged := mergeParts(shards, scratch)
		// Tell each shard the certified mass of its peers, pruning the
		// candidates that can no longer qualify globally, and then what the
		// candidates of all shards came to.
		cands = cands[:0]
		for i := range shards {
			sh := &shards[i]
			sh.peers.LogLow = peerLowOf(shards, i, scratch)
			cands = sh.cur.Candidates(cands, sh.peers.LogLow)
		}
		v := decide(cands, merged)
		settled := true
		for i := range shards {
			sh := &shards[i]
			sh.peers.LogKth, sh.peers.LogMax = v.logKth, v.logDensity
			sh.settled = sh.cur.Settled(sh.peers)
			settled = settled && sh.settled
		}
		pages, nodes, scored := work()
		tr.End(roundSp, "merge_round", -1, rounds, pages, nodes, scored)
		// Every shard settled, a round that expanded no node anywhere cannot
		// tighten anything either — every queued subtree carries zero hull
		// mass, the merged interval is as good as exhaustion would make it —
		// and the still certified intervals are accepted rather than spun on.
		if exhausted || (settled && (v.decided || nodes == visited)) {
			return core.Results(v.kept, merged), stats(rounds), nil
		}
		visited = nodes
		if v.decided {
			continue // only unsettled shards have work left: no new budget
		}
		// Halve the worst shard's unexplored mass each round — a threshold
		// decision may need arbitrarily tight intervals (the unsharded
		// engine's exactness), and the geometric shrink reaches any
		// tightness, bottoming out at full exhaustion (exact denominator).
		// An accuracy target gives a sharper budget. The gap high−low is
		// bounded by the total unexplored hull mass, so bounding that mass
		// bounds every width:
		//	width(ld) = e^ld·(H−L)/(L·H) ≤ e^ld·Σⱼhullⱼ/(L·H) ≤ accuracy
		// ⇔ Σⱼhullⱼ ≤ accuracy·L·H/e^ld,
		// computed for the density decide named (if it named one), split
		// evenly across shards with a factor-2 safety margin. Take whichever
		// is smaller.
		budget = maxHull - math.Ln2
		if accuracy > 0 && !math.IsInf(v.logDensity, -1) {
			budget = min(budget, math.Log(accuracy)+merged.LogLow()+merged.LogHigh()-v.logDensity-math.Log(float64(2*n)))
		}
	}
}
