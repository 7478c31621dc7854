package gausstree

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// IngestOptions switch a Tree into online merge-ingest mode (FROSS-style
// continuous ingestion): instead of letting a stream of repeated
// observations grow the tree without bound, Insert first probes for the
// most likely already-stored Gaussian and, when it is within MergeDistance,
// folds the new observation into it by moment matching — the stored object
// keeps its id, its mean moves toward the observation and its σ absorbs
// both measurement spreads, weighted by how many observations were merged
// so far. Observations with no near-duplicate insert normally.
//
// This keeps the index size proportional to the number of distinct objects
// rather than the number of observations, which is what makes a sustained
// sensor feed (see examples/sensornet) indexable at all.
type IngestOptions struct {
	// MergeDistance is the merge threshold on the normalized Mahalanobis
	// distance d between an observation and its most likely stored
	// Gaussian, d² = mean over dimensions of (μ₁ᵢ−μ₂ᵢ)²/(σ₁ᵢ²+σ₂ᵢ²).
	// d ≤ MergeDistance merges; larger inserts. Must be > 0. A value
	// around 1–3 merges observations that are statistically
	// indistinguishable given both uncertainties.
	MergeDistance float64
	// TTL, when > 0, marks stored objects whose last observation is older
	// than TTL as expired; SweepExpired deletes them. Zero disables decay.
	TTL time.Duration
}

// IngestStats are cumulative counters of merge-ingest mode; see
// Tree.IngestStats.
type IngestStats struct {
	// Inserted counts observations stored as new objects.
	Inserted uint64
	// Merged counts observations folded into an existing Gaussian.
	Merged uint64
	// Swept counts objects removed by SweepExpired TTL decay.
	Swept uint64
}

// ingestEntry is the in-memory bookkeeping of one stored object in
// merge-ingest mode: its current stored parameters (needed to Replace and
// Delete by exact vector), the number of observations merged into it, and
// the last observation time for TTL decay.
type ingestEntry struct {
	vec    Vector
	weight float64
	seen   time.Time
}

// ingester implements merge-or-insert over the one tree of a Tree (the
// probe and the in-place replace are single-tree operations). All its
// state is guarded by the owning index's writer mutex — every method is
// called with it held.
type ingester struct {
	opts    IngestOptions
	tr      *core.Tree
	entries map[uint64]*ingestEntry
	stats   IngestStats
}

// newIngester validates opts and seeds the bookkeeping from what tr
// already stores (nothing on New, the persisted objects on Open).
func newIngester(opts IngestOptions, tr *core.Tree) (*ingester, error) {
	if !(opts.MergeDistance > 0) || math.IsInf(opts.MergeDistance, 0) {
		return nil, fmt.Errorf("%w: IngestOptions.MergeDistance must be a positive finite number, got %v", ErrInvalidOptions, opts.MergeDistance)
	}
	if opts.TTL < 0 {
		return nil, fmt.Errorf("%w: IngestOptions.TTL must be >= 0, got %v", ErrInvalidOptions, opts.TTL)
	}
	g := &ingester{opts: opts, tr: tr}
	return g, g.seed()
}

// seed rebuilds the bookkeeping from the stored vectors (after Open or
// BulkLoad). Pre-existing objects start with weight 1 — their merge history
// is not persisted — and a fresh TTL clock.
func (g *ingester) seed() error {
	g.entries = make(map[uint64]*ingestEntry, g.tr.Len())
	return g.tr.ForEach(func(v pfv.Vector) error {
		g.track(v)
		return nil
	})
}

// track registers a vector stored verbatim (seed, InsertAll, a fresh
// insert) as an object of weight 1 observed now, so TTL decay covers it.
func (g *ingester) track(v Vector) {
	g.entries[v.ID] = &ingestEntry{vec: v, weight: 1, seen: time.Now()}
}

// insert merges v into its most likely stored near-duplicate or inserts it.
// The context bounds the near-duplicate probe (a k=1 likelihood query); the
// mutation itself is not cancellable once it starts.
func (g *ingester) insert(ctx context.Context, v Vector) error {
	res, _, err := g.tr.KMLIQRanked(ctx, v, 1)
	if err != nil {
		return err
	}
	if len(res) == 1 {
		stored := res[0].Vector
		if normMahalanobisSq(stored, v) <= g.opts.MergeDistance*g.opts.MergeDistance {
			return g.merge(stored, v)
		}
	}
	return g.store(v)
}

// store inserts v as a new object. Merge-ingest treats ids as object
// identities: a re-used id rebinds the bookkeeping to the latest stored
// copy.
func (g *ingester) store(v Vector) error {
	if err := g.tr.Insert(v); err != nil {
		return err
	}
	g.track(v)
	g.stats.Inserted++
	return nil
}

// merge folds observation obs into the stored Gaussian and replaces it
// in-place in the tree (one logged, snapshot-published mutation).
func (g *ingester) merge(stored, obs Vector) error {
	e := g.entries[stored.ID]
	if e == nil {
		// Stored object predates this ingester's view (shouldn't happen
		// after seed, but tolerate): adopt it with weight 1.
		e = &ingestEntry{vec: stored, weight: 1}
		g.entries[stored.ID] = e
	}
	merged, err := mergeGaussians(stored, obs, e.weight)
	if err != nil {
		return err
	}
	ok, err := g.tr.Replace(stored, merged)
	if err != nil {
		return err
	}
	if !ok {
		// The probed vector is gone (stale bookkeeping); store the
		// observation as a fresh object instead.
		return g.store(obs)
	}
	e.vec = merged
	e.weight++
	e.seen = time.Now()
	g.stats.Merged++
	return nil
}

// forget drops the bookkeeping of a deleted object.
func (g *ingester) forget(id uint64) {
	delete(g.entries, id)
}

// normMahalanobisSq is the squared normalized Mahalanobis distance between
// two probabilistic feature vectors: the mean over dimensions of
// (μ₁ᵢ−μ₂ᵢ)²/(σ₁ᵢ²+σ₂ᵢ²). Dividing by the summed variances makes the
// threshold a unitless "how many combined standard deviations apart"
// measure; the mean (not sum) over dimensions keeps one threshold value
// meaningful across dimensionalities.
func normMahalanobisSq(a, b Vector) float64 {
	dim := a.Dim()
	var sum float64
	for i := 0; i < dim; i++ {
		d := a.Mean[i] - b.Mean[i]
		sum += d * d / (a.Sigma[i]*a.Sigma[i] + b.Sigma[i]*b.Sigma[i])
	}
	return sum / float64(dim)
}

// mergeGaussians moment-matches the mixture of a stored Gaussian carrying
// weight w and one new observation (weight 1): the merged Gaussian has the
// mixture's exact mean and variance,
//
//	μ = (w·μs + μn) / (w+1)
//	σ² = (w·(σs²+μs²) + (σn²+μn²)) / (w+1) − μ²
//
// per dimension. The variance absorbs both the component spreads and the
// distance between the means, so repeated merging never understates
// uncertainty. The stored id is kept.
func mergeGaussians(stored, obs Vector, w float64) (Vector, error) {
	dim := stored.Dim()
	wTot := w + 1
	mean := make([]float64, dim)
	sigma := make([]float64, dim)
	for i := 0; i < dim; i++ {
		ms, mn := stored.Mean[i], obs.Mean[i]
		vs := stored.Sigma[i] * stored.Sigma[i]
		vn := obs.Sigma[i] * obs.Sigma[i]
		mu := (w*ms + mn) / wTot
		v := (w*(vs+ms*ms)+(vn+mn*mn))/wTot - mu*mu
		if !(v > 0) {
			// Guard against floating-point cancellation when both
			// components nearly coincide: fall back to the tighter of the
			// two component variances.
			v = math.Min(vs, vn)
		}
		mean[i] = mu
		sigma[i] = math.Sqrt(v)
	}
	return pfv.New(stored.ID, mean, sigma)
}

// sweep deletes every object last observed before cutoff and returns how
// many stored copies went with them.
func (g *ingester) sweep(cutoff time.Time) (int, error) {
	removed := 0
	for id, e := range g.entries {
		if !e.seen.Before(cutoff) {
			continue
		}
		found, err := g.tr.Delete(e.vec)
		if err != nil {
			return removed, err
		}
		delete(g.entries, id)
		if found {
			removed++
			g.stats.Swept++
		}
	}
	return removed, nil
}

// SweepExpired removes every stored object whose last observation is older
// than IngestOptions.TTL and returns how many were removed. It is a no-op
// (0, nil) when the tree is not in merge-ingest mode or TTL is 0. Like all
// mutations it runs under the writer lock without blocking readers, and
// returns once the deletions are durable.
func (t *Tree) SweepExpired() (removed int, err error) {
	err = t.mutate(func(*state) (err error) {
		if t.ing != nil && t.ing.opts.TTL > 0 {
			removed, err = t.ing.sweep(time.Now().Add(-t.ing.opts.TTL))
		}
		return err
	})
	return removed, err
}

// IngestStats reports the cumulative merge-ingest counters; ok is false
// when the tree is not in merge-ingest mode.
func (t *Tree) IngestStats() (stats IngestStats, ok bool) {
	t.index.mu.Lock()
	defer t.index.mu.Unlock()
	if t.ing == nil {
		return IngestStats{}, false
	}
	return t.ing.stats, true
}
