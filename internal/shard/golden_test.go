package shard

import (
	"bufio"
	"cmp"
	"context"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

// The answer-identity golden pins what the certified-stop kernel
// (internal/core/bounds.go) must not change: for every engine entry point —
// the unsharded tree, a 1-shard and a 4-shard engine — the id lists, the
// traversal counters and the certified intervals of TIQ and k-MLIQ on the
// paper's data set 2. testdata/certified_stop_golden.txt is a table written
// by `go test ./internal/shard -run TestCertifiedStopGolden -update-golden`.
// It has no rows for the 1-shard engine: a one-shard engine answers with its
// tree's own stand-alone query, so each of its rows must equal the tree's row
// of the same seed, op and block — which pins that delegation, statistics
// included.
//
// The tree rows were first written by the parent of the kernel change with one
// thing added: the accumulator fix that rebuilds the queue bounds when a pop
// cancels them. That fix moves the certified bounds (they were wrong before
// it), and with them a few stop decisions per hundred queries; the kernel
// itself — log-space tests, memoised fold, admission filter — reproduced
// them to the bit in ids and counters and to 1e-12 per interval endpoint.
// The ranked rows (ranked(k): k-MLIQ without probabilities, so they hash each
// result's log-density bits beside its id and sum no interval) were first
// written by the parent of the change that made the ranked query a cursor,
// and pinned that its pages were the ones the old driver read.
// All rows were rewritten when bulk-loaded leaves began to keep two slots
// free: the tree under them is another tree. The same change made the exact
// sum rebase on its largest term, which on the old tree moved no row.
// The shards-4 rows are of the partition by parameter space (PR 22), which
// reads about half the pages of the hash routing before it — and since their
// counters have no older build to agree with, what vouches for them is in this
// test: every sharded answer is compared, query by query, with the tree's
// (answersDiffer), and -update-golden refuses to write when one differs.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/certified_stop_golden.txt from this build")

const goldenHeader = `# All rows: written after commit 4ee00dd by the change that loads a leaf with 46 of its 48 slots
# (capLeaf·23/24), lowers the minimum fill to 40 % and rebases the exact-sum accumulator on its
# largest term (internal/core/bounds.go; alone, on 4ee00dd's tree, it moves no row); every sharded
# answer matched the tree's. Before it: tree rows of commit 37388d4 plus the scaledAccum
# cancellation-rebuild fix, shards-4 rows of the first partition by parameter space, ranked rows
# of commit 41762e0, before the ranked query became a core.Cursor. The ranked rows were
# re-recorded when ranked queries began scoring every vector of a leaf they read (pages, ids and
# densities unchanged; scored, and the hash that includes it, rose).
# ranked rows hash each result's id and log-density bits; their interval sums are 0.
# engine seed op block | pages nodes scored hash(ids+counters per query) results sumProbLow sumProbHigh
`

const (
	goldenFile     = "testdata/certified_stop_golden.txt"
	goldenN        = 20000
	goldenQueries  = 400
	goldenBlock    = 100 // queries per table row
	goldenAccuracy = 1e-6
)

// oneShard names the 1-shard engine's rows, which are checked against the
// tree's and not stored.
const oneShard = "shards-1"

type goldenOp struct {
	name    string
	param   float64
	queries int // leading pool queries the op runs over
}

// TIQ(0) answers with all 20 000 objects, 25 ms a query: it runs over the
// first 25 queries of each seed, every other op over all 400.
var goldenOps = []goldenOp{
	{"tiq", 0, 25}, {"tiq", 0.05, goldenQueries}, {"tiq", 0.5, goldenQueries}, {"tiq", 0.8, goldenQueries}, {"tiq", 1, goldenQueries},
	{"kmliq", 1, goldenQueries}, {"kmliq", 3, goldenQueries}, {"kmliq", 10, goldenQueries},
	{"ranked", 1, goldenQueries}, {"ranked", 3, goldenQueries}, {"ranked", 10, goldenQueries},
}

// goldenRow aggregates one block of queries: exact counters, a hash over the
// per-query id lists and counters, and the interval endpoints summed in
// result order (equal summands give equal sums, so the sums differ by at
// most the summed endpoint differences).
type goldenRow struct {
	pages, nodes, scored uint64
	hash                 uint64
	results              int
	sumLo, sumHi         float64
}

func (r goldenRow) String() string {
	return fmt.Sprintf("%d %d %d %016x %d %.17g %.17g", r.pages, r.nodes, r.scored, r.hash, r.results, r.sumLo, r.sumHi)
}

func goldenKey(engine string, seed int64, op goldenOp, block int) string {
	return fmt.Sprintf("%s seed=%d %s(%v) block=%d", engine, seed, op.name, op.param, block)
}

func TestCertifiedStopGolden(t *testing.T) {
	if testing.Short() && !*updateGolden {
		t.Skip("runs 25 000 queries")
	}
	p := dataset.DefaultSyntheticParams()
	p.N = goldenN
	ds, err := dataset.Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	single, engines := buildEngines(t, ds.Vectors, ds.Dim, pagefile.DefaultPageSize, 1, 4)
	entry := []struct {
		name string
		e    query.Engine
	}{{"tree", single}, {oneShard, engines[0]}, {"shards-4", engines[1]}}

	got := map[string]goldenRow{}
	var order []string
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: goldenQueries, Sigma: p.Sigma, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// The table lists a seed's rows engine by engine; the queries run
		// engine-innermost, so that every sharded answer is held against the
		// tree's answer to the same query before it may enter a row.
		for _, en := range entry {
			for _, op := range goldenOps {
				for block := 0; block*goldenBlock < op.queries; block++ {
					order = append(order, goldenKey(en.name, seed, op, block))
				}
			}
		}
		for _, op := range goldenOps {
			for block := 0; block*goldenBlock < op.queries; block++ {
				rows := make([]goldenRow, len(entry))
				hashes := make([]hash.Hash64, len(entry))
				for i := range hashes {
					hashes[i] = fnv.New64a()
				}
				for qi, q := range qs[block*goldenBlock : min((block+1)*goldenBlock, op.queries)] {
					var tree []query.Result
					for i, en := range entry {
						res, st, err := goldenQuery(ctx, en.e, q.Vector, op)
						if err != nil {
							t.Fatal(err)
						}
						row, h := &rows[i], hashes[i]
						row.pages += st.PageAccesses
						row.nodes += uint64(st.NodesVisited)
						row.scored += uint64(st.VectorsScored)
						fmt.Fprintf(h, "%d/%d/%d:", st.PageAccesses, st.NodesVisited, st.VectorsScored)
						for _, r := range res {
							if op.name == "ranked" {
								fmt.Fprintf(h, "%d:%x,", r.Vector.ID, math.Float64bits(r.LogDensity))
								continue
							}
							fmt.Fprintf(h, "%d,", r.Vector.ID)
							row.sumLo += r.ProbLow
							row.sumHi += r.ProbHigh
						}
						row.results += len(res)
						if i == 0 {
							tree = res
						} else if diff := answersDiffer(tree, res); diff != "" {
							t.Errorf("%s query %d: %s", goldenKey(en.name, seed, op, block), qi, diff)
						}
					}
				}
				for i, en := range entry {
					rows[i].hash = hashes[i].Sum64()
					got[goldenKey(en.name, seed, op, block)] = rows[i]
				}
			}
		}
	}

	for key, row := range got {
		if rest, ok := strings.CutPrefix(key, oneShard+" "); ok {
			if tree := got["tree "+rest]; row != tree {
				t.Errorf("%s:\n  have %v\n  tree %v", key, row, tree)
			}
			delete(got, key)
		}
	}

	if *updateGolden {
		if t.Failed() {
			t.Fatal("a sharded answer differs from the tree's: the table is not rewritten")
		}
		var b strings.Builder
		b.WriteString(goldenHeader)
		for _, key := range order {
			if row, ok := got[key]; ok {
				fmt.Fprintf(&b, "%s | %s\n", key, row)
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " | ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		var want goldenRow
		if _, err := fmt.Sscanf(val, "%d %d %d %x %d %g %g", &want.pages, &want.nodes, &want.scored, &want.hash, &want.results, &want.sumLo, &want.sumHi); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		have, ok := got[key]
		if !ok {
			t.Errorf("golden row %q was not produced", key)
			continue
		}
		seen++
		tol := 1e-12 * math.Max(1, float64(want.results))
		if have.pages != want.pages || have.nodes != want.nodes || have.scored != want.scored ||
			have.hash != want.hash || have.results != want.results ||
			math.Abs(have.sumLo-want.sumLo) > tol || math.Abs(have.sumHi-want.sumHi) > tol {
			t.Errorf("%s:\n  have %v\n  want %v", key, have, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(got) {
		t.Errorf("golden table has %d of the %d rows this build produces", seen, len(got))
	}
}

// answersDiffer holds a sharded answer against the tree's answer to the same
// query: the same ids (a sharded interval is its own certification of the
// same posterior, so rows order by slightly different midpoints: compared as
// sets), and for each id two intervals that overlap.
func answersDiffer(tree, sharded []query.Result) string {
	if len(tree) != len(sharded) {
		return fmt.Sprintf("%d results, the tree %d", len(sharded), len(tree))
	}
	byID := func(rs []query.Result) []query.Result {
		rs = slices.Clone(rs)
		slices.SortFunc(rs, func(a, b query.Result) int { return cmp.Compare(a.Vector.ID, b.Vector.ID) })
		return rs
	}
	tree, sharded = byID(tree), byID(sharded)
	for i, w := range tree {
		g := sharded[i]
		if g.Vector.ID != w.Vector.ID {
			return fmt.Sprintf("reports id %d, the tree id %d", g.Vector.ID, w.Vector.ID)
		}
		if g.ProbLow > w.ProbHigh+1e-12 || w.ProbLow > g.ProbHigh+1e-12 {
			return fmt.Sprintf("id %d: [%v, %v] does not overlap the tree's [%v, %v]", g.Vector.ID, g.ProbLow, g.ProbHigh, w.ProbLow, w.ProbHigh)
		}
	}
	return ""
}

func goldenQuery(ctx context.Context, e query.Engine, q pfv.Vector, op goldenOp) ([]query.Result, query.Stats, error) {
	switch op.name {
	case "tiq":
		return e.TIQ(ctx, q, op.param, goldenAccuracy)
	case "ranked":
		return e.KMLIQRanked(ctx, q, int(op.param))
	}
	return e.KMLIQ(ctx, q, int(op.param), goldenAccuracy)
}
