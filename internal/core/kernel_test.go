package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/pqueue"
	"github.com/gauss-tree/gausstree/internal/query"
)

// ds2Tree bulk-loads the paper's data set 2 at size n and returns it with a
// pool of re-observation queries.
func ds2Tree(tb testing.TB, n, queries int, seed int64) (*Tree, []pfv.Vector) {
	tb.Helper()
	p := dataset.DefaultSyntheticParams()
	p.N = n
	ds, err := dataset.Synthetic(p)
	if err != nil {
		tb.Fatal(err)
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: queries, Sigma: p.Sigma, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := pagefile.NewManager(pagefile.NewMemBackend(pagefile.DefaultPageSize), pagefile.DefaultPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(mgr, ds.Dim, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.BulkLoad(ds.Vectors); err != nil {
		tb.Fatal(err)
	}
	out := make([]pfv.Vector, len(qs))
	for i, q := range qs {
		out[i] = q.Vector
	}
	return tr, out
}

// ds2Observations returns count fresh observations of DS2 at size n — its
// re-observations of the given seed, renumbered past the stored ids — the
// vectors the benchmark's writer inserts.
func ds2Observations(tb testing.TB, n, count int, seed int64) []pfv.Vector {
	tb.Helper()
	p := dataset.DefaultSyntheticParams()
	p.N = n
	ds, err := dataset.Synthetic(p)
	if err != nil {
		tb.Fatal(err)
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: count, Sigma: p.Sigma, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]pfv.Vector, len(qs))
	for i, q := range qs {
		out[i] = q.Vector
		out[i].ID = uint64(n + 1 + i)
	}
	return out
}

// TestTrackerAgreesWithLiveQueue runs real best-first traversals and, at
// every stop test, recomputes the queue-bound sums from the live queue: the
// O(1)-remove accumulators must agree with them however the dominant hulls
// were popped. Before the cancellation-triggered rebuild they drifted by
// whole orders of magnitude between the every-256-mutations rebuilds.
func TestTrackerAgreesWithLiveQueue(t *testing.T) {
	tr, qs := ds2Tree(t, 20000, 40, 5)
	worst := 0.0
	for _, q := range qs {
		trav := tr.newTraversal(context.Background(), q, true, mliqCollector{acquireTopK(1)})
		steps := 0
		err := trav.run(func() bool {
			steps++
			floor, hull := math.Inf(-1), math.Inf(-1)
			trav.active.Items(func(a activeNode, _ float64) {
				floor = logAddExp(floor, a.logFloorN)
				hull = logAddExp(hull, a.logHullN)
			})
			p := trav.denom.fold().parts
			for _, c := range [][2]float64{{p.LogFloor, floor}, {p.LogHull, hull}} {
				if math.IsInf(c[1], -1) && math.IsInf(c[0], -1) {
					continue
				}
				if d := math.Abs(c[0] - c[1]); d > worst || math.IsNaN(d) {
					worst = d
				}
			}
			return false // exhaust the tree
		})
		if err != nil {
			t.Fatal(err)
		}
		trav.release()
		if steps < 10 {
			t.Fatalf("traversal made only %d stop tests", steps)
		}
	}
	if worst > 1e-8 {
		t.Errorf("accumulated queue bounds drift from the live queue by up to %v nats", worst)
	}
}

// TestScaledAccumKeepsAbsorbedTerms is the soundness regression: a term
// absorbed by rounding must reappear once the dominant term is removed.
func TestScaledAccumKeepsAbsorbedTerms(t *testing.T) {
	var d denomTracker
	q := pqueue.NewMax[activeNode]()
	big, small := activeNode{page: 1, logHullN: 0, logFloorN: 0}, activeNode{page: 2, logHullN: -100, logFloorN: -100}
	for _, a := range []activeNode{big, small} {
		q.Push(a, a.logHullN)
		d.push(a)
	}
	a, _, _ := q.Pop() // best-first pops the dominant subtree
	d.pop(a)
	d.maybeRebuild(q)
	if p := d.fold().parts; math.Abs(p.LogHull+100) > 1e-9 || math.Abs(p.LogFloor+100) > 1e-9 {
		t.Errorf("after popping the dominant term: hull %v floor %v, want -100 (a subtree of mass e^-100 is still queued)", p.LogHull, p.LogFloor)
	}
}

// TestTrackerRandomizedWideRange drives the tracker with a best-first-like
// mix of pushes and max-pops over terms spanning ±700 nats and checks the
// folded queue bounds against direct summation at every step.
func TestTrackerRandomizedWideRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		var d denomTracker
		q := pqueue.NewMax[activeNode]()
		for step := 0; step < 400; step++ {
			if q.Len() == 0 || rng.Float64() < 0.55 {
				hull := rng.Float64()*1400 - 700
				a := activeNode{page: pagefile.PageID(step), logHullN: hull, logFloorN: hull - rng.Float64()*50}
				q.Push(a, a.logHullN)
				d.push(a)
			} else {
				a, _, _ := q.Pop()
				d.pop(a)
			}
			d.maybeRebuild(q)
			floor, hull := math.Inf(-1), math.Inf(-1)
			q.Items(func(a activeNode, _ float64) {
				floor = logAddExp(floor, a.logFloorN)
				hull = logAddExp(hull, a.logHullN)
			})
			p := d.fold().parts
			if q.Len() == 0 {
				d.clearQueueBounds()
				continue
			}
			if math.Abs(p.LogHull-hull) > 1e-6 || math.Abs(p.LogFloor-floor) > 1e-6 {
				t.Fatalf("round %d step %d: folded hull %v floor %v, direct %v %v", round, step, p.LogHull, p.LogFloor, hull, floor)
			}
		}
	}
}

// TestFoldMemoInvalidation: a stale memo is the one failure mode the
// memoised fold adds, so every mutating method must invalidate it.
func TestFoldMemoInvalidation(t *testing.T) {
	a := activeNode{page: 1, logFloorN: -3, logHullN: -1}
	b := activeNode{page: 2, logFloorN: -4, logHullN: -2}
	queue := func(items ...activeNode) *pqueue.Queue[activeNode] {
		q := pqueue.NewMax[activeNode]()
		for _, it := range items {
			q.Push(it, it.logHullN)
		}
		return q
	}
	mutators := map[string]func(d *denomTracker){
		"addExact":    func(d *denomTracker) { d.addExact(-0.5) },
		"addResidual": func(d *denomTracker) { d.addResidual(-6, -5) },
		"push":        func(d *denomTracker) { d.push(b) },
		"pop":         func(d *denomTracker) { d.pop(a) },
		"maybeRebuild": func(d *denomTracker) {
			d.hullPQ.cancelled = true
			d.maybeRebuild(queue(b)) // the live queue differs from what was pushed
		},
		"clearQueueBounds": func(d *denomTracker) { d.clearQueueBounds() },
	}
	for name, mutate := range mutators {
		var d denomTracker
		d.addExact(-2)
		d.push(a)
		before := *d.fold()
		if !d.folded {
			t.Fatalf("%s: fold did not memoise", name)
		}
		if again := d.fold(); *again != before {
			t.Fatalf("%s: memoised fold changed without a mutation", name)
		}
		mutate(&d)
		if d.folded {
			t.Errorf("%s left the memo marked valid", name)
		}
		after := *d.fold()
		d.folded = false
		if fresh := *d.fold(); fresh != after {
			t.Errorf("%s: fold after mutation %+v, recomputed %+v", name, after, fresh)
		}
		if after == before {
			t.Errorf("%s: bounds did not move (%+v); the case does not exercise the memo", name, after)
		}
	}
}

// TestThresholdReachesMatchesExactForm: the log-space threshold test must
// decide exactly as the reported probability clamp(exp(ld − logDenom)) ≥ θ
// does (query.ProbInterval at a point denominator), in particular with
// θ set to the exact-form value itself and its floating-point neighbours,
// which is what the fallback band is for.
func TestThresholdReachesMatchesExactForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inf := math.Inf(1)
	exact := func(ld, logDenom float64) float64 {
		p, _ := query.ProbInterval(ld, logDenom, logDenom)
		return p
	}
	check := func(ld, logDenom, theta float64) {
		t.Helper()
		th := threshold{p: theta, log: math.Log(theta)}
		want := exact(ld, logDenom) >= theta
		if got := th.reaches(ld, logDenom); got != want {
			t.Fatalf("reaches(ld=%v, denom=%v, θ=%v) = %v, exact form says %v", ld, logDenom, theta, got, want)
		}
	}
	for i := 0; i < 200000; i++ {
		logDenom := rng.NormFloat64() * 300
		ld := logDenom - rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(8)-6))
		if i%16 == 0 {
			ld = logDenom + rng.NormFloat64()*1e-12 // p ≈ 1, either side
		}
		p := exact(ld, logDenom)
		for _, theta := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, 1), rng.Float64(), 0, 1, 5e-324} {
			if theta >= 0 && theta <= 1 {
				check(ld, logDenom, theta)
			}
		}
	}
	for _, theta := range []float64{0, 5e-324, 1e-300, 0.5, 1} {
		for _, ld := range []float64{-inf, -800, 0, 800} {
			for _, logDenom := range []float64{-inf, -800, 0, 800} {
				check(ld, logDenom, theta)
			}
		}
	}
}
