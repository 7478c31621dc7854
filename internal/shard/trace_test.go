package shard

import (
	"context"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/obs"
)

// TestTraceAttribution runs a traced sharded k-MLIQ and checks the spans
// attribute pages, nodes and time to every shard the query resumed — at most
// one kmliq_refine span per shard and round, none for a shard it skipped —
// and to the coordinator's merge rounds, one span each, consistent with the
// per-shard statistics.
func TestTraceAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vs := clustered(rng, 900, 3, 5)
	_, engines := buildEngines(t, vs, 3, 1024, 4)
	e := engines[0]
	q := reobserved(rng, vs[17])

	tr := obs.NewTrace("test-trace")
	defer tr.Release()
	ctx := obs.WithTrace(context.Background(), tr)
	_, st, err := e.KMLIQDetail(ctx, q, 5, 1e-9)
	if err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	perShard := map[int]int64{} // shard -> pages over all refine spans
	refines := map[[2]int]int{} // (shard, round) -> refine spans
	rounds := map[int]int{}
	var roundPages int64
	for _, sp := range spans {
		switch sp.Name {
		case "kmliq_refine":
			if sp.Shard < 0 || sp.Shard >= e.NumShards() {
				t.Errorf("refine span with bad shard: %+v", sp)
			}
			if sp.Round < 1 || sp.Round > st.MergeRounds {
				t.Errorf("refine span outside rounds [1,%d]: %+v", st.MergeRounds, sp)
			}
			perShard[sp.Shard] += sp.Pages
			if refines[[2]int{sp.Shard, sp.Round}]++; refines[[2]int{sp.Shard, sp.Round}] > 1 {
				t.Errorf("shard %d has two refine spans in round %d", sp.Shard, sp.Round)
			}
		case "merge_round":
			if sp.Round < 1 || sp.Round > st.MergeRounds {
				t.Errorf("merge_round span outside [1,%d]: %+v", st.MergeRounds, sp)
			}
			if rounds[sp.Round]++; rounds[sp.Round] > 1 {
				t.Errorf("two merge_round spans for round %d", sp.Round)
			}
			roundPages += sp.Pages
		default:
			t.Errorf("unexpected span name %q", sp.Name)
		}
	}
	for i := 0; i < e.NumShards(); i++ { // a skipped shard: no span, 0 pages
		if perShard[i] != int64(st.PerShard[i].PageAccesses) {
			t.Errorf("shard %d: spans attribute %d pages, stats say %d", i, perShard[i], st.PerShard[i].PageAccesses)
		}
	}
	if len(rounds) != st.MergeRounds {
		t.Errorf("got %d merge_round spans, want %d", len(rounds), st.MergeRounds)
	}
	if roundPages != int64(st.PageAccesses) {
		t.Errorf("merge_round spans attribute %d pages total, stats say %d", roundPages, st.PageAccesses)
	}
}

// TestTraceAttributionTIQ covers the TIQ coordinator path.
func TestTraceAttributionTIQ(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vs := clustered(rng, 600, 3, 4)
	_, engines := buildEngines(t, vs, 3, 1024, 3)
	e := engines[0]
	q := reobserved(rng, vs[3])

	tr := obs.NewTrace("")
	defer tr.Release()
	ctx := obs.WithTrace(context.Background(), tr)
	_, st, err := e.TIQDetail(ctx, q, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	refines, merges := 0, 0
	for _, sp := range spansOf(tr) {
		switch sp.Name {
		case "tiq_refine":
			refines++
		case "merge_round":
			merges++
		}
	}
	if refines == 0 {
		t.Error("no tiq_refine spans recorded")
	}
	if merges != st.MergeRounds {
		t.Errorf("got %d merge_round spans, want %d", merges, st.MergeRounds)
	}
}

func spansOf(tr *obs.Trace) []obs.Span { return tr.Spans() }

// TestUntracedQueryRecordsNothing guards the zero-overhead contract: a
// query without a trace in its context must not fabricate spans anywhere.
func TestUntracedQueryRecordsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vs := clustered(rng, 300, 3, 3)
	_, engines := buildEngines(t, vs, 3, 1024, 2)
	q := reobserved(rng, vs[1])
	if _, _, err := engines[0].KMLIQ(context.Background(), q, 3, 0.01); err != nil {
		t.Fatal(err)
	}
}
