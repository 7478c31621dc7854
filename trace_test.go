package gausstree_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/obs"
)

// traced runs one query under a fresh trace and returns what it recorded.
func traced(t *testing.T, query func(ctx context.Context) error) []obs.Span {
	t.Helper()
	tr := obs.NewTrace("")
	defer tr.Release()
	if err := query(obs.WithTrace(context.Background(), tr)); err != nil {
		t.Fatal(err)
	}
	return tr.Spans()
}

// TestTreeQuerySpanNames pins the span names a traced Tree query emits —
// the benchmark ledger's obs.span.kmliq_us row and the daemon's slow-query
// log read them by name. A Tree answers through its core tree's own cursor,
// which has no shard label, so the one span it records carries the query's
// name, is attributed to no shard and no round, and accounts for every page.
func TestTreeQuerySpanNames(t *testing.T) {
	tree, err := gausstree.New(3, gausstree.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	vs := randomWorld(rand.New(rand.NewSource(21)), 900, 3)
	if err := tree.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	q := gausstree.MustVector(0, vs[17].Mean, vs[17].Sigma)

	var st gausstree.QueryStats
	queries := map[string]func(ctx context.Context) (err error){
		"kmliq":        func(ctx context.Context) (err error) { _, st, err = tree.KMLIQContext(ctx, q, 5); return },
		"tiq":          func(ctx context.Context) (err error) { _, st, err = tree.TIQContext(ctx, q, 0.05); return },
		"kmliq_ranked": func(ctx context.Context) (err error) { _, st, err = tree.KMLIQRankedContext(ctx, q, 5); return },
	}
	for name, query := range queries {
		spans := traced(t, query)
		if len(spans) != 1 {
			t.Errorf("%s: recorded %d spans %+v, want one", name, len(spans), spans)
			continue
		}
		sp := spans[0]
		if sp.Name != name || sp.Shard != -1 || sp.Round != -1 {
			t.Errorf("%s: span %+v, want that name on shard -1, round -1", name, sp)
		}
		if sp.Pages != int64(st.PageAccesses) || sp.Nodes != int64(st.NodesVisited) || sp.Pages == 0 {
			t.Errorf("%s: span accounts for %d pages, %d nodes; the query read %d, %d", name, sp.Pages, sp.Nodes, st.PageAccesses, st.NodesVisited)
		}
	}
}

// TestShardedQuerySpanNames is the same contract with peers: every merge
// round records one merge_round span, and under it one "<query>_refine" span
// for each shard the round resumed, labelled with the shard and the round —
// at most one per shard and round, at least one in the first, and none at all
// for a shard the query skipped, which is how a trace shows the skip. The
// ranked query has no merge rounds: it records one kmliq_ranked_refine span,
// in round 1, for each shard it read.
func TestShardedQuerySpanNames(t *testing.T) {
	const shards = 4
	sh, err := gausstree.NewSharded(3, shards, gausstree.Options{PageSize: 1024, Accuracy: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	vs := randomWorld(rand.New(rand.NewSource(22)), 900, 3)
	if err := sh.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	q := gausstree.MustVector(0, vs[17].Mean, vs[17].Sigma)

	var st gausstree.ShardedQueryStats
	queries := map[string]func(ctx context.Context) (err error){
		"kmliq_refine": func(ctx context.Context) (err error) { _, st, err = sh.KMLIQContext(ctx, q, 5); return },
		"tiq_refine":   func(ctx context.Context) (err error) { _, st, err = sh.TIQContext(ctx, q, 0.05); return },
	}
	for name, query := range queries {
		spans := traced(t, query)
		rounds := map[int]int{}          // round -> merge_round spans
		refines := map[[2]int]int{}      // (shard, round) -> refine spans
		pages := make([]int64, shards+1) // per shard; [shards]: over merge rounds
		for _, sp := range spans {
			switch {
			case sp.Name == "merge_round" && sp.Shard == -1:
				rounds[sp.Round]++
				pages[shards] += sp.Pages
			case sp.Name == name && sp.Shard >= 0 && sp.Shard < shards:
				refines[[2]int{sp.Shard, sp.Round}]++
				pages[sp.Shard] += sp.Pages
			default:
				t.Errorf("%s: unexpected span %+v", name, sp)
			}
		}
		if st.MergeRounds < 1 || len(rounds) != st.MergeRounds {
			t.Errorf("%s: %d merge_round spans over %d rounds", name, len(rounds), st.MergeRounds)
		}
		first := 0
		for r := 1; r <= st.MergeRounds; r++ {
			for i := 0; i < shards; i++ {
				if rounds[r] != 1 || refines[[2]int{i, r}] > 1 {
					t.Errorf("%s: round %d has %d merge_round spans, shard %d %d refine spans", name, r, rounds[r], i, refines[[2]int{i, r}])
				}
			}
		}
		for key := range refines {
			if key[1] < 1 || key[1] > st.MergeRounds {
				t.Errorf("%s: shard %d has a refine span in round %d of %d", name, key[0], key[1], st.MergeRounds)
			}
			if key[1] == 1 {
				first++
			}
		}
		if first == 0 {
			t.Errorf("%s: the first round resumed no shard", name)
		}
		for i, per := range st.PerShard {
			// A skipped shard has no span, so its 0 pages match too.
			if pages[i] != int64(per.PageAccesses) {
				t.Errorf("%s: shard %d spans account for %d pages, its statistics for %d", name, i, pages[i], per.PageAccesses)
			}
		}
		if pages[shards] != int64(st.PageAccesses) {
			t.Errorf("%s: merge_round spans account for %d pages, the query read %d", name, pages[shards], st.PageAccesses)
		}
	}

	spans := traced(t, func(ctx context.Context) (err error) { _, st, err = sh.KMLIQRankedContext(ctx, q, 5); return })
	read, total := map[int]bool{}, int64(0)
	for _, sp := range spans {
		if sp.Name != "kmliq_ranked_refine" || sp.Shard < 0 || sp.Shard >= shards || sp.Round != 1 || read[sp.Shard] {
			t.Errorf("ranked: unexpected span %+v", sp)
			continue
		}
		read[sp.Shard], total = true, total+sp.Pages
		if sp.Pages != int64(st.PerShard[sp.Shard].PageAccesses) {
			t.Errorf("ranked: shard %d span accounts for %d pages, its statistics for %d", sp.Shard, sp.Pages, st.PerShard[sp.Shard].PageAccesses)
		}
	}
	for i, per := range st.PerShard {
		if read[i] != (per.PageAccesses > 0) {
			t.Errorf("ranked: shard %d read %d pages, has a span: %v", i, per.PageAccesses, read[i])
		}
	}
	if total == 0 || total != int64(st.PageAccesses) {
		t.Errorf("ranked: spans account for %d pages, the query read %d", total, st.PageAccesses)
	}
}
