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

// childEntries maps every page of tr to the entry its parent holds for it —
// the root's built from the root box — so a test can bound any queued
// subtree on its own.
func childEntries(tb testing.TB, tr *Tree) map[pagefile.PageID]childEntry {
	tb.Helper()
	box, count, err := tr.RootBox()
	if err != nil {
		tb.Fatal(err)
	}
	out := map[pagefile.PageID]childEntry{tr.root: {page: tr.root, count: count, box: box}}
	for _, n := range innerNodes(tb, tr) {
		for j, c := range n.children {
			c.box = entryBox(&n.boxes, j, tr.dim) // a reader's node keeps its boxes columnar
			out[c.page] = c
		}
	}
	return out
}

// stopTest is Refine's stop test against no peers with check run before it.
func stopTest(c *Cursor, alone bool, maxLogUnexplored float64, check func()) func() bool {
	return func() bool {
		check()
		return c.col.done(c.tr, c.accuracy, NoPeers(), alone) && c.tr.bounds().parts.LogHull <= maxLogUnexplored
	}
}

// TestTrackerAgreesWithLiveQueue runs real queries — a stand-alone 3-MLIQ
// and TIQ, and a 3-MLIQ shard cursor refined round by round — and at every
// stop test recomputes the queue-bound sums independently: each live
// block's remaining children bounded one box at a time by the scalar
// gaussian.HullTerm/FloorTerm reference (scalarBounds), weighted by their
// counts and summed. The block suffix sums — deferred until a stop test
// first reads the bounds, then traded on every pop and rebuilt from the live
// blocks when a pop cancels a total — must agree with them however the
// dominant hulls were popped.
func TestTrackerAgreesWithLiveQueue(t *testing.T) {
	tr, qs := ds2Tree(t, 20000, 40, 5)
	entries := childEntries(t, tr)
	worst, tests := 0.0, 0
	check := func(trav *traversal) {
		if trav.active.deferred {
			return // no sums kept yet: the first test that reads them settles the queue
		}
		tests++
		floor, hull := math.Inf(-1), math.Inf(-1)
		q := &trav.active
		q.heap.Items(func(b int32, _ float64) {
			for _, c := range q.kids[q.blocks[b].next:q.blocks[b].end] {
				e := entries[c.page]
				h, f, _ := scalarBounds(e.box, tr.cfg.Combiner, trav.q)
				lc := math.Log(float64(e.count))
				floor, hull = logAddExp(floor, f+lc), logAddExp(hull, h+lc)
			}
		})
		p := trav.denom.fold().parts
		for _, c := range [][2]float64{{p.LogFloor, floor}, {p.LogHull, hull}} {
			if math.IsInf(c[1], -1) && math.IsInf(c[0], -1) {
				continue
			}
			d := math.Abs(c[0] - c[1])
			if math.IsNaN(d) {
				t.Fatalf("tracked %v, recomputed %v", c[0], c[1])
			}
			worst = max(worst, d)
		}
	}
	ctx := context.Background()
	for _, q := range qs {
		kmliq, err := tr.OpenKMLIQ(ctx, q, 3, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		tiq, err := tr.OpenTIQ(ctx, q, 0.5, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Cursor{kmliq, tiq} {
			if err := c.tr.run(stopTest(c, true, math.Inf(1), func() { check(c.tr) })); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
		shard, err := tr.OpenKMLIQ(ctx, q, 3, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if err := shard.AsShard(0); err != nil {
			t.Fatal(err)
		}
		for budget := math.Inf(1); !shard.Exhausted() && budget > -1e300; budget = shard.DenomParts().LogHull - 3 {
			if err := shard.tr.run(stopTest(shard, false, budget, func() { check(shard.tr) })); err != nil {
				t.Fatal(err)
			}
		}
		shard.Close()
	}
	if tests < 40*20 {
		t.Fatalf("only %d stop tests over %d queries", tests, len(qs))
	}
	t.Logf("%d stop tests, worst drift %.3g nats", tests, worst)
	if worst > 1e-8 {
		t.Errorf("tracked queue bounds drift from the recomputed ones by up to %v nats", worst)
	}
}

// TestBlocksPopInHeapOrder pins that queueing one block per expanded node
// changes no pop: for stand-alone 3-MLIQ, TIQ and ranked queries, the pages
// each query pops, in order, are those a best-first over a plain heap of
// children pops, every child under its scalar hull bound.
func TestBlocksPopInHeapOrder(t *testing.T) {
	tr, qs := ds2Tree(t, 20000, 40, 6)
	ctx := context.Background()
	ops := []struct {
		name string
		open func(q pfv.Vector) (*Cursor, error)
	}{
		{"kmliq", func(q pfv.Vector) (*Cursor, error) { return tr.OpenKMLIQ(ctx, q, 3, 1e-6) }},
		{"tiq", func(q pfv.Vector) (*Cursor, error) { return tr.OpenTIQ(ctx, q, 0.5, 1e-6) }},
		{"ranked", func(q pfv.Vector) (*Cursor, error) { return tr.OpenKMLIQRanked(ctx, q, 3) }},
	}
	for _, op := range ops {
		pops := 0
		for qi, q := range qs {
			c, err := op.open(q)
			if err != nil {
				t.Fatal(err)
			}
			var popped []pagefile.PageID
			err = c.tr.run(func() bool {
				if c.col.done(c.tr, c.accuracy, NoPeers(), true) {
					return true
				}
				next, _ := c.tr.active.peek()
				popped = append(popped, next.page)
				return false
			})
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
			ref := pqueue.NewMax[pagefile.PageID]()
			expand := func(page pagefile.PageID) {
				n, err := tr.readNode(page, pagefile.Pin{})
				if err != nil {
					t.Fatal(err)
				}
				for j, ch := range n.children {
					h, _, _ := scalarBounds(entryBox(&n.boxes, j, tr.dim), tr.cfg.Combiner, q)
					ref.Push(ch.page, h)
				}
			}
			expand(tr.root)
			for i, got := range popped {
				want, _, ok := ref.Pop()
				if !ok || got != want {
					t.Fatalf("%s query %d pop %d: page %d, a heap of children pops %d (ok %v)", op.name, qi, i, got, want, ok)
				}
				expand(want)
			}
			pops += len(popped)
		}
		if pops < 10*len(qs) {
			t.Fatalf("%s: only %d pops over %d queries", op.name, pops, len(qs))
		}
	}
}

// testQueue returns an empty block queue whose suffix sums go to d.
func testQueue(d *denomTracker) *activeQueue {
	return &activeQueue{heap: pqueue.NewMax[int32](), denom: d}
}

// pushTestBlock queues one block of single-object children under the given
// bounds, numbering their pages from first.
func pushTestBlock(q *activeQueue, first int, floors, hulls []float64) {
	children := make([]childEntry, len(hulls))
	for i := range children {
		children[i] = childEntry{page: pagefile.PageID(first + i), count: 1}
	}
	q.push(children, hulls, floors, false)
}

// TestScaledAccumKeepsAbsorbedTerms is the soundness regression: a term
// absorbed by rounding must reappear once the dominant term is popped,
// whether the two wait in one block or in two.
func TestScaledAccumKeepsAbsorbedTerms(t *testing.T) {
	for _, blocks := range [][][]float64{{{0, -100}}, {{0}, {-100}}} {
		var d denomTracker
		q := testQueue(&d)
		for i, b := range blocks {
			pushTestBlock(q, 2*i, b, b)
		}
		q.pop() // best-first pops the dominant subtree
		d.maybeRebuild(q)
		if p := d.fold().parts; math.Abs(p.LogHull+100) > 1e-9 || math.Abs(p.LogFloor+100) > 1e-9 {
			t.Errorf("blocks %v, after popping the dominant term: hull %v floor %v, want -100 (a subtree of mass e^-100 is still queued)", blocks, p.LogHull, p.LogFloor)
		}
	}
}

// TestTrackerRandomizedWideRange drives the tracker with a best-first mix of
// blocks pushed and children popped over terms spanning ±700 nats and checks
// the folded queue bounds against direct summation at every step.
func TestTrackerRandomizedWideRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		var d denomTracker
		q := testQueue(&d)
		live := map[pagefile.PageID][2]float64{} // floor and hull of each queued child
		page := 0
		for step := 0; step < 400; step++ {
			if q.len() == 0 || rng.Float64() < 0.2 {
				n := rng.Intn(8) + 1
				floors, hulls := make([]float64, n), make([]float64, n)
				for i := range hulls {
					hulls[i] = rng.Float64()*1400 - 700
					floors[i] = hulls[i] - rng.Float64()*50
					live[pagefile.PageID(page+i)] = [2]float64{floors[i], hulls[i]}
				}
				pushTestBlock(q, page, floors, hulls)
				page += n
			} else {
				delete(live, q.pop().page)
			}
			d.maybeRebuild(q)
			if q.len() == 0 {
				d.clearQueueBounds()
				continue
			}
			floor, hull := math.Inf(-1), math.Inf(-1)
			for _, b := range live {
				floor, hull = logAddExp(floor, b[0]), logAddExp(hull, b[1])
			}
			p := d.fold().parts
			if math.Abs(p.LogHull-hull) > 1e-6 || math.Abs(p.LogFloor-floor) > 1e-6 {
				t.Fatalf("round %d step %d: folded hull %v floor %v, direct %v %v", round, step, p.LogHull, p.LogFloor, hull, floor)
			}
		}
	}
}

// TestFoldMemoInvalidation: a stale memo is the one failure mode the
// memoised fold adds, so every mutating method must invalidate it.
func TestFoldMemoInvalidation(t *testing.T) {
	a := suffix{expSum{-3, 1}, expSum{-1, 1}}
	b := suffix{expSum{-4, 1}, expSum{-2, 1}}
	var other denomTracker
	live := testQueue(&other) // b alone: not what the tracker was given
	pushTestBlock(live, 2, []float64{-4}, []float64{-2})
	mutators := map[string]func(d *denomTracker){
		"addExact":    func(d *denomTracker) { d.addExact(-0.5) },
		"addResidual": func(d *denomTracker) { d.addResidual(-6, -5) },
		"enter":       func(d *denomTracker) { d.enter(b) },
		"advance":     func(d *denomTracker) { d.advance(a, suffix{}) },
		"maybeRebuild": func(d *denomTracker) {
			d.hullPQ.cancelled = true
			d.maybeRebuild(live)
		},
		"clearQueueBounds": func(d *denomTracker) { d.clearQueueBounds() },
	}
	for name, mutate := range mutators {
		var d denomTracker
		d.addExact(-2)
		d.enter(a)
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
