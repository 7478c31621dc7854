// Package shard scales the Gauss-tree out horizontally: an Engine partitions
// probabilistic feature vectors across N independent core trees and answers
// every identification query by concurrent fan-out — one goroutine per
// shard, context-aware, first error cancels the siblings.
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
// cursors (core.KMLIQCursor / core.TIQCursor) with a geometrically
// shrinking unexplored-mass budget — and feeds each shard the certified
// denominator mass of its peers, which tightens local pruning beyond what
// any stand-alone tree could do.
//
// The first round costs what the unsharded query costs: every shard runs to
// the exact stand-alone stop condition of its query type (against its local
// denominator). Only when the merged interval is still too wide does the
// coordinator compute the missing certification — the total unexplored hull
// mass that would make the widest candidate's interval fit — split that
// budget across shards, and resume. Unexplored hull mass is the right
// refinement currency because it shrinks monotonically to zero as a
// traversal expands, so every target is reachable and the loop provably
// terminates (in the limit all shards exhaust and the denominator is
// exact).
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
// same way. A nil partitioner defaults to HashByID.
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
	if part == nil {
		part = HashByID()
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
// returns how many vectors are durably applied (summed across shards — on
// error the durable set may be a non-prefix subset of vs, since shards
// fail independently).
func (e *Engine) InsertAll(vs []pfv.Vector) (int, error) {
	groups := Split(e.part, vs, len(e.trees))
	applied := make([]int, len(e.trees))
	err := e.eachShard(func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		n, err := e.trees[i].InsertAll(groups[i])
		applied[i] = n
		return err
	})
	total := 0
	for _, n := range applied {
		total += n
	}
	return total, err
}

// BulkLoad partitions the vector set and bulk-loads every shard
// concurrently (all shards must be empty).
func (e *Engine) BulkLoad(vs []pfv.Vector) error {
	groups := Split(e.part, vs, len(e.trees))
	return e.eachShard(func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return e.trees[i].BulkLoad(groups[i])
	})
}

// Delete removes one stored copy of the exact vector. With a deterministic
// partitioner only the owning shard is probed; otherwise shards are probed
// in order until a copy is found.
func (e *Engine) Delete(v pfv.Vector) (bool, error) {
	if e.part.Deterministic() {
		return e.trees[e.part.Place(v, len(e.trees))].Delete(v)
	}
	for _, t := range e.trees {
		found, err := t.Delete(v)
		if err != nil || found {
			return found, err
		}
	}
	return false, nil
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

// eachShard runs f(i) for every shard concurrently and returns the first
// error (by shard index). Used for mutations, where there is no context to
// cancel — each shard's work must complete or fail on its own.
func (e *Engine) eachShard(f func(i int) error) error {
	errs := make([]error, len(e.trees))
	var wg sync.WaitGroup
	for i := range e.trees {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fanOut runs f(i) for every shard concurrently under a shared cancellable
// context: the first failing shard cancels its siblings (errgroup-style),
// and the returned error is the root cause, not a sibling's ctx.Canceled.
// The cancellable context must already be threaded into whatever f touches
// (the cursors are created with it); cancel is called on first error.
func fanOut(n int, cancel context.CancelFunc, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f(i); err != nil {
				errs[i] = err
				cancel()
			}
		}(i)
	}
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

// mergeParts combines per-shard denominator components by log-sum-exp. All
// three components are additive across disjoint data partitions, so the
// merged parts bound the global Bayes denominator exactly as one tree over
// the union of the data would.
func mergeParts(ps []core.DenomParts) core.DenomParts {
	ex := make([]float64, len(ps))
	fl := make([]float64, len(ps))
	hu := make([]float64, len(ps))
	for i, p := range ps {
		ex[i], fl[i], hu[i] = p.LogExact, p.LogFloor, p.LogHull
	}
	return core.DenomParts{
		LogExact: gaussian.LogSumExpSlice(ex),
		LogFloor: gaussian.LogSumExpSlice(fl),
		LogHull:  gaussian.LogSumExpSlice(hu),
	}
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
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(e.trees)
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
	var all []query.Result
	for _, rs := range perRes {
		all = append(all, rs...)
	}
	query.SortByDensity(all)
	if len(all) > k {
		all = all[:k]
	}
	return query.NonNil(all), stats, nil
}

// KMLIQ answers a k-most-likely identification query with certified
// probabilities (§5.2.2) across all shards. The global top-k by density is
// contained in the union of the per-shard top-k sets, so ranking is settled
// after the first round; probabilities come from the merged denominator
// interval, and when that interval leaves some reported probability wider
// than the accuracy, the coordinator resumes the shard cursors with an
// unexplored-mass budget computed from exactly the certification that is
// missing (see KMLIQDetail's loop).
func (e *Engine) KMLIQ(ctx context.Context, q pfv.Vector, k int, accuracy float64) ([]query.Result, query.Stats, error) {
	res, st, err := e.KMLIQDetail(ctx, q, k, accuracy)
	return res, st.Stats, err
}

// KMLIQDetail is KMLIQ with per-shard statistics and merge-round counts.
func (e *Engine) KMLIQDetail(ctx context.Context, q pfv.Vector, k int, accuracy float64) ([]query.Result, Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(e.trees)
	cursors := make([]*core.KMLIQCursor, n)
	// Cursors hold pooled traversal state; hand it back when the query is
	// done (including on partial construction and error paths — the return
	// values are evaluated before the deferred closes run).
	defer func() {
		for _, c := range cursors {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i, t := range e.trees {
		c, err := t.NewKMLIQCursor(ctx, q, k)
		if err != nil {
			return nil, Stats{}, err
		}
		c.TraceShard(i)
		cursors[i] = c
	}
	// Traced queries get one merge_round span per coordinator round (the
	// aggregated fan-out + merge work); the per-shard kmliq_refine spans come
	// from the cursors themselves.
	tr := obs.TraceFrom(ctx)
	cursorWork := func() (pages, nodes, scored int64) {
		for _, c := range cursors {
			st := c.Stats()
			pages += int64(st.PageAccesses)
			nodes += int64(st.NodesVisited)
			scored += int64(st.VectorsScored)
		}
		return
	}

	// First round: every shard runs to its natural stand-alone stop (local
	// ranking determined, local intervals within accuracy), costing what an
	// unsharded query costs. Later rounds, if any, chase the merged-width
	// target via the unexplored-mass budget.
	maxLogUnexplored := math.Inf(1)
	rounds := 0
	visited := -1
	var out []query.Result
	for {
		rounds++
		var roundSp obs.SpanStart
		if tr != nil {
			p, nd, sc := cursorWork()
			roundSp = tr.Begin(p, nd, sc)
		}
		if err := fanOut(n, cancel, func(i int) error { return cursors[i].Refine(accuracy, maxLogUnexplored) }); err != nil {
			return nil, e.cursorStats(rounds, func(i int) query.Stats { return cursors[i].Stats() }), err
		}

		parts := make([]core.DenomParts, n)
		var cands []core.Candidate
		exhausted := true
		for i, c := range cursors {
			parts[i] = c.DenomParts()
			cands = append(cands, c.Candidates()...)
			exhausted = exhausted && c.Exhausted()
		}
		core.SortCandidates(cands)
		if len(cands) > k {
			cands = cands[:k]
		}
		merged := mergeParts(parts)
		out = out[:0]
		tight := true
		for _, c := range cands {
			lo, hi := merged.ProbInterval(c.LogDensity)
			if accuracy > 0 && hi-lo > accuracy {
				tight = false
			}
			out = append(out, query.Result{
				Vector:      c.Vector,
				LogDensity:  c.LogDensity,
				Probability: (lo + hi) / 2,
				ProbLow:     lo,
				ProbHigh:    hi,
			})
		}
		if tr != nil {
			p, nd, sc := cursorWork()
			tr.End(roundSp, "merge_round", -1, rounds, p, nd, sc)
		}
		if tight || exhausted || !e.progressed(&visited, func(i int) query.Stats { return cursors[i].Stats() }) {
			break
		}
		// Some merged interval is still wider than the accuracy. The gap
		// high−low is bounded by the total unexplored hull mass, so bounding
		// that mass bounds every width:
		//	width(ld) = e^ld·(H−L)/(L·H) ≤ e^ld·Σⱼhullⱼ/(L·H) ≤ accuracy
		// ⇔ Σⱼhullⱼ ≤ accuracy·L·H/e^ld.
		// The budget is computed for the densest candidate (the widest
		// interval), split evenly across shards with a factor-2 safety
		// margin, and clamped to at most half the current worst shard's
		// mass so every round makes geometric progress even when the
		// estimate stalls.
		needed := math.Log(accuracy) + merged.LogLow() + merged.LogHigh() - cands[0].LogDensity - math.Log(float64(2*n))
		maxHull := math.Inf(-1)
		for _, p := range parts {
			if p.LogHull > maxHull {
				maxHull = p.LogHull
			}
		}
		if progress := maxHull - math.Ln2; progress < needed {
			needed = progress
		}
		maxLogUnexplored = needed
	}
	query.SortByProbability(out)
	return query.NonNil(out), e.cursorStats(rounds, func(i int) query.Stats { return cursors[i].Stats() }), nil
}

// TIQ answers a threshold identification query across all shards. Unlike
// k-MLIQ, threshold decisions cannot be finished shard-locally at all: extra
// denominator mass from the other shards can push a locally-qualifying
// candidate below the threshold. Each round therefore (a) resumes every
// shard cursor with the current unexplored-mass budget AND the certified
// denominator mass of its peers — per-shard lower bounds only grow, so a
// peer bound from the previous round is still valid and sharpens local
// pruning — and then (b) re-decides every surviving candidate against the
// merged interval.
// Candidates whose merged upper bound falls below the threshold are dropped
// for good; the loop ends when every survivor is certified at or above the
// threshold (and, if accuracy > 0, its interval is at most accuracy wide),
// or when every shard is exhausted and the denominator is exact.
func (e *Engine) TIQ(ctx context.Context, q pfv.Vector, pTheta float64, accuracy float64) ([]query.Result, query.Stats, error) {
	res, st, err := e.TIQDetail(ctx, q, pTheta, accuracy)
	return res, st.Stats, err
}

// TIQDetail is TIQ with per-shard statistics and merge-round counts.
func (e *Engine) TIQDetail(ctx context.Context, q pfv.Vector, pTheta float64, accuracy float64) ([]query.Result, Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(e.trees)
	cursors := make([]*core.TIQCursor, n)
	defer func() {
		for _, c := range cursors {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i, t := range e.trees {
		c, err := t.NewTIQCursor(ctx, q, pTheta)
		if err != nil {
			return nil, Stats{}, err
		}
		c.TraceShard(i)
		cursors[i] = c
	}
	// Round spans as in KMLIQDetail; per-shard tiq_refine spans come from
	// the cursors.
	tr := obs.TraceFrom(ctx)
	cursorWork := func() (pages, nodes, scored int64) {
		for _, c := range cursors {
			st := c.Stats()
			pages += int64(st.PageAccesses)
			nodes += int64(st.NodesVisited)
			scored += int64(st.VectorsScored)
		}
		return
	}

	// First round: every shard runs its natural stand-alone TIQ exploration
	// (stop once no local subtree can still qualify). Later rounds shrink
	// the per-shard unexplored-mass budget until the merged interval
	// decides every candidate.
	maxLogUnexplored := math.Inf(1)
	externalLow := make([]float64, n)
	for i := range externalLow {
		externalLow[i] = math.Inf(-1)
	}

	rounds := 0
	visited := -1
	var out []query.Result
	for {
		rounds++
		var roundSp obs.SpanStart
		if tr != nil {
			p, nd, sc := cursorWork()
			roundSp = tr.Begin(p, nd, sc)
		}
		if err := fanOut(n, cancel, func(i int) error { return cursors[i].Refine(maxLogUnexplored, externalLow[i]) }); err != nil {
			return nil, e.cursorStats(rounds, func(i int) query.Stats { return cursors[i].Stats() }), err
		}

		parts := make([]core.DenomParts, n)
		exhausted := true
		for i, c := range cursors {
			parts[i] = c.DenomParts()
			exhausted = exhausted && c.Exhausted()
		}
		merged := mergeParts(parts)

		// Push each shard the certified mass of its peers, pruning
		// candidates that can no longer reach the threshold globally.
		for i, c := range cursors {
			externalLow[i] = peerLow(parts, i)
			c.Prune(gaussian.LogAddExp(parts[i].LogLow(), externalLow[i]))
		}

		out = out[:0]
		decided := true
		ldMaxUndecided := math.Inf(-1)
		for _, c := range cursors {
			for _, cand := range c.Candidates() {
				lo, hi := merged.ProbInterval(cand.LogDensity)
				if hi < pTheta {
					continue // certified out; the cursor prunes it next round
				}
				if lo < pTheta || (accuracy > 0 && hi-lo > accuracy) {
					decided = false
					if cand.LogDensity > ldMaxUndecided {
						ldMaxUndecided = cand.LogDensity
					}
				}
				out = append(out, query.Result{
					Vector:      cand.Vector,
					LogDensity:  cand.LogDensity,
					Probability: (lo + hi) / 2,
					ProbLow:     lo,
					ProbHigh:    hi,
				})
			}
		}
		if tr != nil {
			p, nd, sc := cursorWork()
			tr.End(roundSp, "merge_round", -1, rounds, p, nd, sc)
		}
		if decided || exhausted || !e.progressed(&visited, func(i int) query.Stats { return cursors[i].Stats() }) {
			break
		}
		// Halve the worst shard's unexplored mass each round — a threshold
		// decision may need arbitrarily tight intervals (the unsharded
		// engine's exactness), and the geometric shrink reaches any
		// tightness, bottoming out at full exhaustion (exact denominator).
		// With an accuracy target the width bound (see KMLIQDetail) gives a
		// sharper budget; take whichever is smaller.
		maxHull := math.Inf(-1)
		for _, p := range parts {
			if p.LogHull > maxHull {
				maxHull = p.LogHull
			}
		}
		next := maxHull - math.Ln2
		if accuracy > 0 {
			needed := math.Log(accuracy) + merged.LogLow() + merged.LogHigh() - ldMaxUndecided - math.Log(float64(2*n))
			if needed < next {
				next = needed
			}
		}
		maxLogUnexplored = next
	}
	query.SortByProbability(out)
	return query.NonNil(out), e.cursorStats(rounds, func(i int) query.Stats { return cursors[i].Stats() }), nil
}

// progressed reports whether the last refinement round expanded at least
// one node anywhere, carrying the previous round's total in visited. A
// round that expanded nothing cannot tighten anything either — every
// remaining queued subtree carries zero hull mass, so the merged interval
// is already as good as exhaustion would make it — and the coordinator must
// accept the current (still certified) intervals rather than spin.
func (e *Engine) progressed(visited *int, stats func(i int) query.Stats) bool {
	total := 0
	for i := range e.trees {
		total += stats(i).NodesVisited
	}
	if total == *visited {
		return false
	}
	*visited = total
	return true
}

// peerLow returns the log-sum-exp of every shard's certified denominator
// lower bound except shard i's own.
func peerLow(parts []core.DenomParts, i int) float64 {
	lows := make([]float64, 0, len(parts)-1)
	for j, p := range parts {
		if j != i {
			lows = append(lows, p.LogLow())
		}
	}
	return gaussian.LogSumExpSlice(lows)
}

// cursorStats assembles the per-shard breakdown after a cursor-driven query.
func (e *Engine) cursorStats(rounds int, stats func(i int) query.Stats) Stats {
	per := make([]query.Stats, len(e.trees))
	for i := range e.trees {
		per[i] = stats(i)
	}
	return collectStats(per, rounds)
}
