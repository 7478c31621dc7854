// Benchmarks regenerating the paper's figures at reduced scale, one
// benchmark per table/figure panel plus the DESIGN.md ablations. Use
// cmd/gaussbench for full-scale paper-sized runs; these testing.B harnesses
// keep `go test -bench=.` to a few minutes while exercising the identical
// code paths. Custom metrics: pages/query is the paper's "page accesses".
package gausstree_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/eval"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/scan"
	"github.com/gauss-tree/gausstree/internal/shard"
	"github.com/gauss-tree/gausstree/internal/vafile"

	"github.com/gauss-tree/gausstree/internal/core"
)

// benchDS1N / benchDS2N are the reduced bench scales (paper: 10987/100000).
const (
	benchDS1N = 3000
	benchDS2N = 10000
	benchQ    = 50
)

type world struct {
	ds *dataset.Dataset
	qs []dataset.Query
	e  *eval.Engines
}

var (
	ds1Once, ds2Once sync.Once
	ds1W, ds2W       world
)

func benchDS1(b *testing.B) *world {
	b.Helper()
	ds1Once.Do(func() {
		p := dataset.DefaultHistogramParams()
		p.N = benchDS1N
		ds, err := dataset.ColorHistograms(p)
		if err != nil {
			panic(err)
		}
		qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: benchQ, Sigma: p.Sigma, Seed: 101})
		if err != nil {
			panic(err)
		}
		e, err := eval.Build(ds, eval.Setup{})
		if err != nil {
			panic(err)
		}
		ds1W = world{ds, qs, e}
	})
	return &ds1W
}

func benchDS2(b *testing.B) *world {
	b.Helper()
	ds2Once.Do(func() {
		p := dataset.DefaultSyntheticParams()
		p.N = benchDS2N
		ds, err := dataset.Synthetic(p)
		if err != nil {
			panic(err)
		}
		qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: benchQ, Sigma: p.Sigma, Seed: 102})
		if err != nil {
			panic(err)
		}
		e, err := eval.Build(ds, eval.Setup{})
		if err != nil {
			panic(err)
		}
		ds2W = world{ds, qs, e}
	})
	return &ds2W
}

// BenchmarkFigure1Posterior regenerates the §3.1 worked example (E1).
func BenchmarkFigure1Posterior(b *testing.B) {
	q := pfv.MustNew(0, []float64{0, 0}, []float64{0.0617, 0.9401})
	db := []pfv.Vector{
		pfv.MustNew(1, []float64{1.1503, 1.0088}, []float64{0.3579, 0.2864}),
		pfv.MustNew(2, []float64{1.8674, 0.6274}, []float64{0.8130, 1.8051}),
		pfv.MustNew(3, []float64{1.3597, 1.0857}, []float64{1.3154, 0.1790}),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ps := pfv.Posterior(gaussian.CombineAdditive, db, q)
		if ps[2] < 0.7 {
			b.Fatal("posterior drifted")
		}
	}
}

// benchFig6 measures one Figure 6 panel: 27-NN on means plus 27-MLIQ on the
// Gauss-tree per query (the harness computes all multipliers from one run).
func benchFig6(b *testing.B, w *world) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := w.qs[i%len(w.qs)]
		if _, err := w.e.Scan.NearestNeighbors(q.Vector, 27); err != nil {
			b.Fatal(err)
		}
		if _, _, err := w.e.Tree.KMLIQRanked(context.Background(), q.Vector, 27); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6DS1 regenerates Figure 6(a) per-query work (E2).
func BenchmarkFig6DS1(b *testing.B) { benchFig6(b, benchDS1(b)) }

// BenchmarkFig6DS2 regenerates Figure 6(b) per-query work (E3).
func BenchmarkFig6DS2(b *testing.B) { benchFig6(b, benchDS2(b)) }

// benchFig7 runs one engine × query-type cell of Figure 7 and reports the
// paper's page-access metric.
func benchFig7(b *testing.B, mgr *pagefile.Manager, run func(q pfv.Vector) error, qs []dataset.Query) {
	b.Helper()
	mgr.ResetStats()
	mgr.DropCache()
	start := mgr.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(qs[i%len(qs)].Vector); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	delta := mgr.Stats().Sub(start)
	b.ReportMetric(float64(delta.LogicalReads)/float64(b.N), "pages/query")
}

func fig7Cells(b *testing.B, w *world) {
	kinds := []struct {
		name   string
		thresh float64 // <0 means ranked 1-MLIQ
	}{
		{"MLIQ", -1},
		{"TIQ08", 0.8},
		{"TIQ02", 0.2},
	}
	ctx := context.Background()
	for _, eng := range w.e.All() {
		for _, kind := range kinds {
			eng, kind := eng, kind
			b.Run(eng.Label+"/"+kind.name, func(b *testing.B) {
				benchFig7(b, eng.Mgr, func(q pfv.Vector) error {
					if kind.thresh < 0 {
						_, _, err := eng.Engine.KMLIQRanked(ctx, q, 1)
						return err
					}
					_, _, err := eng.Engine.TIQ(ctx, q, kind.thresh, 0)
					return err
				}, w.qs)
			})
		}
	}
}

// BenchmarkFig7DS1 regenerates the Figure 7 top row (E4): all engines and
// query types on the histogram data set.
func BenchmarkFig7DS1(b *testing.B) { fig7Cells(b, benchDS1(b)) }

// BenchmarkFig7DS2 regenerates the Figure 7 bottom row (E5).
func BenchmarkFig7DS2(b *testing.B) { fig7Cells(b, benchDS2(b)) }

// BenchmarkAblationCombiner compares the paper's additive σ-combination with
// the exact convolution rule (A1).
func BenchmarkAblationCombiner(b *testing.B) {
	w := benchDS2(b)
	for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		comb := comb
		b.Run(comb.String(), func(b *testing.B) {
			mgr, err := pagefile.NewManager(pagefile.NewMemBackend(8192), 8192)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := core.New(mgr, w.ds.Dim, core.Config{Combiner: comb})
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.BulkLoad(w.ds.Vectors); err != nil {
				b.Fatal(err)
			}
			benchFig7(b, mgr, func(q pfv.Vector) error {
				_, _, err := tr.KMLIQRanked(context.Background(), q, 1)
				return err
			}, w.qs)
		})
	}
}

// BenchmarkAblationSplit compares the split objectives (A2).
func BenchmarkAblationSplit(b *testing.B) {
	w := benchDS2(b)
	for _, split := range []core.SplitObjective{core.SplitHullIntegral, core.SplitHullIntegralSum, core.SplitVolume} {
		split := split
		b.Run(split.String(), func(b *testing.B) {
			mgr, err := pagefile.NewManager(pagefile.NewMemBackend(8192), 8192)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := core.New(mgr, w.ds.Dim, core.Config{Split: split})
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.BulkLoad(w.ds.Vectors); err != nil {
				b.Fatal(err)
			}
			benchFig7(b, mgr, func(q pfv.Vector) error {
				_, _, err := tr.KMLIQRanked(context.Background(), q, 1)
				return err
			}, w.qs)
		})
	}
}

// BenchmarkAblationIntegral compares the erf-exact hull integral with the
// paper's degree-5 polynomial sigmoid approximation (A3).
func BenchmarkAblationIntegral(b *testing.B) {
	mu := gaussian.Interval{Lo: -1, Hi: 2}
	sigma := gaussian.Interval{Lo: 0.3, Hi: 1.7}
	b.Run("erf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gaussian.HullIntegralOn(mu, sigma, -6, 6, gaussian.StdCDF)
		}
	})
	b.Run("poly5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gaussian.HullIntegralOn(mu, sigma, -6, 6, gaussian.StdCDFPoly5)
		}
	})
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gaussian.HullIntegral(mu, sigma)
		}
	})
}

// BenchmarkVAFile measures the future-work VA-file filter (A4).
func BenchmarkVAFile(b *testing.B) {
	w := benchDS2(b)
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(8192), 8192)
	if err != nil {
		b.Fatal(err)
	}
	data, err := scan.Create(mgr, w.ds.Dim, gaussian.CombineAdditive)
	if err != nil {
		b.Fatal(err)
	}
	if err := data.AppendAll(w.ds.Vectors); err != nil {
		b.Fatal(err)
	}
	va, err := vafile.Build(mgr, data, gaussian.CombineAdditive)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("KMLIQ", func(b *testing.B) {
		benchFig7(b, mgr, func(q pfv.Vector) error {
			_, _, err := va.KMLIQ(context.Background(), q, 1, 0)
			return err
		}, w.qs)
	})
	b.Run("TIQ08", func(b *testing.B) {
		benchFig7(b, mgr, func(q pfv.Vector) error {
			_, _, err := va.TIQ(context.Background(), q, 0.8, 0)
			return err
		}, w.qs)
	})
}

// BenchmarkBuild compares construction paths at bench scale.
func BenchmarkBuild(b *testing.B) {
	w := benchDS2(b)
	b.Run("BulkLoad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(8192), 8192)
			tr, _ := core.New(mgr, w.ds.Dim, core.Config{})
			if err := tr.BulkLoad(w.ds.Vectors); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("InsertAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgr, _ := pagefile.NewManager(pagefile.NewMemBackend(8192), 8192)
			tr, _ := core.New(mgr, w.ds.Dim, core.Config{})
			if _, err := tr.InsertAll(w.ds.Vectors); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKMLIQRefined measures the §5.2.2 probability-refinement variant
// against the ranked algorithm (context for Figure 7's MLIQ column).
func BenchmarkKMLIQRefined(b *testing.B) {
	w := benchDS2(b)
	b.Run("ranked", func(b *testing.B) {
		benchFig7(b, w.e.TreeMgr, func(q pfv.Vector) error {
			_, _, err := w.e.Tree.KMLIQRanked(context.Background(), q, 1)
			return err
		}, w.qs)
	})
	b.Run("accuracy-1e2", func(b *testing.B) {
		benchFig7(b, w.e.TreeMgr, func(q pfv.Vector) error {
			_, _, err := w.e.Tree.KMLIQ(context.Background(), q, 1, 1e-2)
			return err
		}, w.qs)
	})
	b.Run("accuracy-1e6", func(b *testing.B) {
		benchFig7(b, w.e.TreeMgr, func(q pfv.Vector) error {
			_, _, err := w.e.Tree.KMLIQ(context.Background(), q, 1, 1e-6)
			return err
		}, w.qs)
	})
}

// BenchmarkReopen measures the build-once/query-forever path of the durable
// storage engine: each iteration cold-opens the persisted DS1 index (fresh
// manager, empty buffer cache) and runs the first k-MLIQ query against it.
// pages/query is the logical page-access cost of that first cold query —
// the latency a restarted server pays before its cache warms up.
func BenchmarkReopen(b *testing.B) {
	w := benchDS1(b)
	path := filepath.Join(b.TempDir(), "reopen.gtree")
	tr, err := gausstree.New(w.ds.Dim, gausstree.Options{Path: path})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.BulkLoad(w.ds.Vectors); err != nil {
		b.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var pages uint64
	for i := 0; i < b.N; i++ {
		re, err := gausstree.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		_, stats, err := re.KMLIQContext(ctx, w.qs[i%len(w.qs)].Vector, 1)
		if err != nil {
			b.Fatal(err)
		}
		pages += stats.PageAccesses
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
}

// BenchmarkKMLIQHot measures the pure in-memory k-MLIQ path: the index is
// fully cached (every page's cache entry holds its decoded node after a full
// pass over the query set), so ns/op and allocs/op are the CPU cost of the
// hot read path itself — the quantity the sharded page cache, its decoded
// entries and the allocation-free traversal optimize. pages/query stays
// reported to prove the traversal itself is unchanged.
func BenchmarkKMLIQHot(b *testing.B) {
	w := benchDS2(b)
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		run  func(q pfv.Vector) (gausstree.QueryStats, error)
	}{
		{"ranked", func(q pfv.Vector) (gausstree.QueryStats, error) {
			_, st, err := w.e.Tree.KMLIQRanked(ctx, q, 3)
			return st, err
		}},
		{"refined", func(q pfv.Vector) (gausstree.QueryStats, error) {
			_, st, err := w.e.Tree.KMLIQ(ctx, q, 3, 1e-4)
			return st, err
		}},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			// Warm both cache layers: every page touched by every query.
			for _, q := range w.qs {
				if _, err := bc.run(q.Vector); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var pages uint64
			for i := 0; i < b.N; i++ {
				st, err := bc.run(w.qs[i%len(w.qs)].Vector)
				if err != nil {
					b.Fatal(err)
				}
				pages += st.PageAccesses
			}
			b.StopTimer()
			b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
		})
	}
}

// BenchmarkKMLIQHotQuantized is BenchmarkKMLIQHot/ranked on the opt-in
// quantized leaf formats, so the cost of interval screening plus sidecar
// re-scoring can be compared against the exact columnar baseline above.
func BenchmarkKMLIQHotQuantized(b *testing.B) {
	p := dataset.DefaultSyntheticParams()
	p.N = benchDS2N
	ds, err := dataset.Synthetic(p)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: benchQ, Sigma: p.Sigma, Seed: 102})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, format := range []core.LeafFormat{core.LeafFloat32, core.LeafGrid8} {
		e, err := eval.Build(ds, eval.Setup{LeafFormat: format})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(format.String(), func(b *testing.B) {
			for _, q := range qs {
				if _, _, err := e.Tree.KMLIQRanked(ctx, q.Vector, 3); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var pages uint64
			for i := 0; i < b.N; i++ {
				_, st, err := e.Tree.KMLIQRanked(ctx, qs[i%len(qs)].Vector, 3)
				if err != nil {
					b.Fatal(err)
				}
				pages += st.PageAccesses
			}
			b.StopTimer()
			b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
		})
	}
}

// BenchmarkTIQHot is the threshold-query face of the fully cached read path.
func BenchmarkTIQHot(b *testing.B) {
	w := benchDS2(b)
	ctx := context.Background()
	for _, q := range w.qs {
		if _, _, err := w.e.Tree.TIQ(ctx, q.Vector, 0.8, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.e.Tree.TIQ(ctx, w.qs[i%len(w.qs)].Vector, 0.8, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchExecutor measures concurrent ranked-query throughput on one
// Gauss-tree engine through the query.BatchExecutor worker pool.
func BenchmarkBatchExecutor(b *testing.B) {
	w := benchDS2(b)
	reqs := make([]query.Request, len(w.qs))
	for i, q := range w.qs {
		reqs[i] = query.Request{Kind: query.KindKMLIQRanked, Query: q.Vector, K: 1}
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			ex := query.NewBatchExecutor(w.e.Tree, workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, resp := range ex.Execute(context.Background(), reqs) {
					if resp.Err != nil {
						b.Fatal(resp.Err)
					}
				}
			}
		})
	}
}

// buildShardedEngine loads the world's vectors into an n-shard in-memory
// engine (one page manager per shard, hash-partitioned).
func buildShardedEngine(b *testing.B, w *world, n int) *shard.Engine {
	b.Helper()
	trees := make([]*core.Tree, n)
	for i := range trees {
		mgr, err := pagefile.NewManager(pagefile.NewMemBackend(pagefile.DefaultPageSize), pagefile.DefaultPageSize)
		if err != nil {
			b.Fatal(err)
		}
		if trees[i], err = core.New(mgr, w.ds.Dim, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	eng, err := shard.New(trees, shard.HashByID())
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.BulkLoad(w.ds.Vectors); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkShardedKMLIQ measures the sharded engine's concurrent fan-out on
// the DS2 subset across shard counts: per-query wall time plus the paper's
// page-access metric aggregated over all shards (the fan-out reads more
// total pages than one tree; the parallelism is what buys wall-clock back
// on deep trees and cold caches).
func BenchmarkShardedKMLIQ(b *testing.B) {
	w := benchDS2(b)
	ctx := context.Background()
	for _, n := range []int{1, 4} {
		n := n
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			eng := buildShardedEngine(b, w, n)
			var pages uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := eng.KMLIQ(ctx, w.qs[i%len(w.qs)].Vector, 3, 1e-4)
				if err != nil {
					b.Fatal(err)
				}
				pages += st.PageAccesses
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
		})
	}
}

// BenchmarkShardedTIQ is the threshold-query face of the sharded fan-out,
// including the cross-shard denominator merge rounds.
func BenchmarkShardedTIQ(b *testing.B) {
	w := benchDS2(b)
	ctx := context.Background()
	for _, n := range []int{1, 4} {
		n := n
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			eng := buildShardedEngine(b, w, n)
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := eng.TIQDetail(ctx, w.qs[i%len(w.qs)].Vector, 0.8, 1e-3)
				if err != nil {
					b.Fatal(err)
				}
				rounds += st.MergeRounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/query")
		})
	}
}
