package eval

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/query"
)

// The Figure 7 work golden pins what every engine does and answers on the
// paper's two data sets at a few seconds' size: per data set, engine and
// query kind, the pages, nodes and vectors scored summed over the workload,
// and one hash over every answer's ids with the bits of its log density and
// probability interval. testdata/fig7_work_golden.txt is written by
// `go test ./internal/eval -run TestFig7WorkGolden -update-golden`; a change
// that claims the same pages and the same answers leaves it untouched.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fig7_work_golden.txt from this build")

const workGoldenHeader = `# Written at commit acb809c, before the sequential scan's pages and the X-tree's data pages
# became columnar (row-major pages decoded one vector at a time and scored by the scalar density).
# The gauss-tree rows were re-recorded after commit 6b3cdad, when the active queue began holding one
# block of children per expanded node: the same pages, nodes, ids and log densities; certified
# probabilities moved by at most 6.9e-11 (the queue's sum bounds are added in another order), and
# ranked(1) scores every vector of each leaf it reads.
# set engine kind | pages nodes scored results hash(counters, ids, log-density and probability bits)
`

const workGoldenFile = "testdata/fig7_work_golden.txt"

// workKinds are Figure 7's three query kinds plus the k-MLIQ with
// probabilities, whose refinement each engine certifies its own way.
var workKinds = []struct {
	name  string
	param float64
}{{"ranked", 1}, {"kmliq", 3}, {"tiq", 0.8}, {"tiq", 0.2}}

func workQuery(ctx context.Context, e query.Engine, q dataset.Query, name string, param float64) ([]query.Result, query.Stats, error) {
	switch name {
	case "ranked":
		return e.KMLIQRanked(ctx, q.Vector, int(param))
	case "kmliq":
		return e.KMLIQ(ctx, q.Vector, int(param), 0)
	}
	return e.TIQ(ctx, q.Vector, param, 0)
}

// workWorld builds data set 1 (27-d histograms) or 2 (10-d synthetic) at n
// objects with nq queries and all four engines at the default page size.
func workWorld(t *testing.T, set, n, nq int) (*Engines, []dataset.Query) {
	t.Helper()
	var ds *dataset.Dataset
	var sigma dataset.SigmaModel
	var seed int64
	var err error
	if set == 1 {
		p := dataset.DefaultHistogramParams()
		p.N = n
		ds, err = dataset.ColorHistograms(p)
		sigma, seed = p.Sigma, p.Seed
	} else {
		p := dataset.DefaultSyntheticParams()
		p.N = n
		ds, err = dataset.Synthetic(p)
		sigma, seed = p.Sigma, p.Seed
	}
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: nq, Sigma: sigma, Seed: seed + 100})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(ds, Setup{})
	if err != nil {
		t.Fatal(err)
	}
	return e, qs
}

func TestFig7WorkGolden(t *testing.T) {
	ctx := context.Background()
	got := map[string]string{}
	var order []string
	for _, w := range []struct{ set, n, nq int }{{1, 1500, 25}, {2, 4000, 25}} {
		e, qs := workWorld(t, w.set, w.n, w.nq)
		for _, eng := range e.All() {
			for _, kind := range workKinds {
				var pages, nodes, scored uint64
				results := 0
				h := fnv.New64a()
				for _, q := range qs {
					res, st, err := workQuery(ctx, eng.Engine, q, kind.name, kind.param)
					if err != nil {
						t.Fatalf("ds%d %s %s: %v", w.set, eng.Engine.Name(), kind.name, err)
					}
					pages += st.PageAccesses
					nodes += uint64(st.NodesVisited)
					scored += uint64(st.VectorsScored)
					results += len(res)
					fmt.Fprintf(h, "%d/%d/%d:", st.PageAccesses, st.NodesVisited, st.VectorsScored)
					for _, r := range res {
						fmt.Fprintf(h, "%d:%x:%x:%x:%x,", r.Vector.ID, math.Float64bits(r.LogDensity),
							math.Float64bits(r.Probability), math.Float64bits(r.ProbLow), math.Float64bits(r.ProbHigh))
					}
				}
				key := fmt.Sprintf("ds%d %s %s(%v)", w.set, eng.Engine.Name(), kind.name, kind.param)
				order = append(order, key)
				got[key] = fmt.Sprintf("%d %d %d %d %016x", pages, nodes, scored, results, h.Sum64())
			}
		}
	}

	if *updateGolden {
		var b strings.Builder
		b.WriteString(workGoldenHeader)
		for _, key := range order {
			fmt.Fprintf(&b, "%s | %s\n", key, got[key])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(workGoldenFile)
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
		key, want, ok := strings.Cut(line, " | ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		have, ok := got[key]
		if !ok {
			t.Errorf("golden row %q was not produced", key)
			continue
		}
		seen++
		if have != want {
			t.Errorf("%s:\n  have %s\n  want %s", key, have, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(got) {
		t.Errorf("golden table has %d of the %d rows this build produces", seen, len(got))
	}
}
