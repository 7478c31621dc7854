// The CPU-kernel benchmarks of the cached read path — the bench-hot set that
// scripts/bench-snapshot.sh records per revision: KMLIQHot, KMLIQRankedHot,
// KMLIQHotQuantized, TIQHot, BatchExecutor, ShardedKMLIQ, ShardedTIQ and AblationIntegral here,
// ReadNodeHot, FirstTouch, DecodeLeaf and ExpandInner in internal/core.
// Everything else has one driver elsewhere: the paper's tables (Fig. 1/6/7, ablations A1, A2,
// A4) are computed by internal/eval and printed by cmd/gaussbench; build,
// reopen, throughput and latency numbers are rows of the benchmark of record
// (./benchmark). Custom metric: pages/query is the paper's "page accesses",
// reported to show a kernel change left the traversal alone.
package gausstree_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/eval"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/shard"

	"github.com/gauss-tree/gausstree/internal/core"
)

// The bench scale is gaussbench -quick's data set 2 (paper: 100000 objects).
const (
	benchDS2N = 10000
	benchQ    = 50
)

type world struct {
	ds *dataset.Dataset
	qs []dataset.Query
	e  *eval.Engines
}

var (
	ds2Once sync.Once
	ds2W    world
)

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

// BenchmarkAblationIntegral times the closed-form hull integral of the split
// objective (A3; ROADMAP's refuted list has the numeric forms, ≈ 15× slower).
func BenchmarkAblationIntegral(b *testing.B) {
	mu := gaussian.Interval{Lo: -1, Hi: 2}
	sigma := gaussian.Interval{Lo: 0.3, Hi: 1.7}
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gaussian.HullIntegral(mu, sigma)
		}
	})
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

// BenchmarkKMLIQRankedHot is the ranked k-MLIQ through the public Tree at
// k = 1, 3 and 10, fully cached: the core traversal plus what the façade adds
// (argument checks, the one-shard engine, the statistics it returns).
func BenchmarkKMLIQRankedHot(b *testing.B) {
	w := benchDS2(b)
	tr, err := gausstree.New(w.ds.Dim)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	if err := tr.BulkLoad(w.ds.Vectors); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range []int{1, 3, 10} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			for _, q := range w.qs {
				if _, _, err := tr.KMLIQRankedContext(ctx, q.Vector, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var pages uint64
			for i := 0; i < b.N; i++ {
				_, st, err := tr.KMLIQRankedContext(ctx, w.qs[i%len(w.qs)].Vector, k)
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
	w := benchDS2(b)
	ctx := context.Background()
	for _, format := range []core.LeafFormat{core.LeafFloat32, core.LeafGrid8} {
		tr := buildTree(b, w, core.Config{LeafFormat: format})
		if err := tr.BulkLoad(w.ds.Vectors); err != nil {
			b.Fatal(err)
		}
		b.Run(format.String(), func(b *testing.B) {
			for _, q := range w.qs {
				if _, _, err := tr.KMLIQRanked(ctx, q.Vector, 3); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var pages uint64
			for i := 0; i < b.N; i++ {
				_, st, err := tr.KMLIQRanked(ctx, w.qs[i%len(w.qs)].Vector, 3)
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

// buildTree creates an empty in-memory Gauss-tree of the world's
// dimensionality on its own page manager.
func buildTree(b *testing.B, w *world, cfg core.Config) *core.Tree {
	b.Helper()
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(pagefile.DefaultPageSize), pagefile.DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.New(mgr, w.ds.Dim, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// buildShardedEngine loads the world's vectors into an n-shard in-memory
// engine (one page manager per shard, hash-partitioned).
func buildShardedEngine(b *testing.B, w *world, n int) *shard.Engine {
	b.Helper()
	trees := make([]*core.Tree, n)
	for i := range trees {
		trees[i] = buildTree(b, w, core.Config{})
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
