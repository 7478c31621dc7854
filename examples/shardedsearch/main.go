// Shardedsearch: scale the Gauss-tree out horizontally. A fleet of devices
// reports uncertain feature vectors; the index is cut by parameter space into
// four shards (one durable page file each), a query reads only the shards
// whose region it can concern, and the per-shard Bayes-denominator intervals —
// of an unread shard, the bounds of its root box — are merged so the reported
// probabilities are exactly what one big tree would certify.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	gausstree "github.com/gauss-tree/gausstree"
)

func main() {
	dir, err := os.MkdirTemp("", "gausstree-sharded")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Four shards, each a region of (μ, σ) space, persisted in dir as
	// shard-0000.gtree … shard-0003.gtree plus a manifest.
	idx, err := gausstree.NewSharded(3, 4, gausstree.Options{Path: dir})
	if err != nil {
		log.Fatal(err)
	}

	// 20000 synthetic observations: each object's features were measured
	// with per-dimension uncertainty.
	rng := rand.New(rand.NewSource(7))
	vectors := make([]gausstree.Vector, 0, 20000)
	for id := 1; id <= 20000; id++ {
		mean := make([]float64, 3)
		sigma := make([]float64, 3)
		for d := range mean {
			mean[d] = rng.Float64() * 100
			sigma[d] = rng.Float64()*2 + 0.1
		}
		vectors = append(vectors, gausstree.MustVector(uint64(id), mean, sigma))
	}
	if err := idx.BulkLoad(vectors); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d vectors into %d shards %v\n", idx.Len(), idx.NumShards(), idx.ShardLens())

	// A fresh, noisy observation of object 4711 — who is it most likely
	// to be? The merged identification probabilities answer globally.
	src := vectors[4710]
	q := gausstree.MustVector(0, []float64{src.Mean[0] + 0.4, src.Mean[1] - 0.2, src.Mean[2] + 0.1},
		[]float64{0.5, 0.5, 0.5})
	matches, stats, err := idx.KMLIQContext(context.Background(), q, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop matches (probabilities merged across shards):")
	for _, m := range matches {
		fmt.Printf("  object %5d  P=%.4f  [%.4f, %.4f]\n", m.Vector.ID, m.Probability, m.ProbLow, m.ProbHigh)
	}
	fmt.Printf("\nquery profile: %d pages total, %d merge round(s); 0 pages = skipped, its root box could not matter\n", stats.PageAccesses, stats.MergeRounds)
	for i, per := range stats.PerShard {
		fmt.Printf("  shard %d: %d pages, %d nodes, %d vectors scored\n", i, per.PageAccesses, per.NodesVisited, per.VectorsScored)
	}

	// Threshold identification works the same way: every object whose
	// global probability reaches 0.5, decided exactly via cross-shard
	// denominator refinement.
	hits, err := idx.Threshold(q, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nobjects with P >= 0.5: %d\n", len(hits))

	// The sharded index reopens from its directory like any other.
	if err := idx.Close(); err != nil {
		log.Fatal(err)
	}
	re, err := gausstree.OpenSharded(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	again, err := re.KMostLikely(q, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after reopen: best match %d with P=%.4f\n", again[0].Vector.ID, again[0].Probability)
}
