package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/query"
)

// This file pins the mechanism of the partition — a shard is a subtree, cut
// by parameter space, skipped when its root box cannot matter — and not just
// the answers it gives.

func newEngine(t *testing.T, shards, dim, pageSize int) (*Engine, []*core.Tree) {
	t.Helper()
	trees := make([]*core.Tree, shards)
	for i := range trees {
		trees[i] = newTree(t, dim, pageSize)
	}
	e, err := New(trees, HashByID())
	if err != nil {
		t.Fatal(err)
	}
	return e, trees
}

func contents(t *testing.T, e *Engine) []pfv.Vector {
	t.Helper()
	var vs []pfv.Vector
	if err := e.ForEach(func(v pfv.Vector) error { vs = append(vs, v); return nil }); err != nil {
		t.Fatal(err)
	}
	return vs
}

// corners draws per vectors around each of the four points (±20, ±20).
func corners(rng *rand.Rand, per int) []pfv.Vector {
	var vs []pfv.Vector
	for c := 0; c < 4; c++ {
		cx, cy := float64(40*(c%2)-20), float64(40*(c/2)-20)
		for i := 0; i < per; i++ {
			mean := []float64{cx + rng.NormFloat64(), cy + rng.NormFloat64()}
			sigma := []float64{0.2 + rng.Float64()*0.3, 0.2 + rng.Float64()*0.3}
			vs = append(vs, pfv.MustNew(uint64(len(vs)+1), mean, sigma))
		}
	}
	return vs
}

func opened(st Stats) (n int) {
	for _, ps := range st.PerShard {
		if ps.PageAccesses > 0 {
			n++
		}
	}
	return n
}

// TestFarShardsAreNeverRead: over four well-separated clusters cut into four
// shards, a query deep inside one cluster is answered — certified to 1e-6 —
// without a page of at least two of the others, one halfway between two
// clusters opens both of them, and the ranked query reads only the shard its
// answer lives in.
func TestFarShardsAreNeverRead(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := corners(rng, 400)
	_, engines := buildEngines(t, vs, 2, 1024, 4)
	e := engines[0]
	ctx := context.Background()

	deep := pfv.MustNew(0, []float64{-20, -20}, []float64{0.3, 0.3})
	for name, run := range map[string]func() (Stats, error){
		"kmliq":  func() (Stats, error) { _, st, err := e.KMLIQDetail(ctx, deep, 3, 1e-6); return st, err },
		"tiq":    func() (Stats, error) { _, st, err := e.TIQDetail(ctx, deep, 0.05, 1e-6); return st, err },
		"ranked": func() (Stats, error) { _, st, err := e.KMLIQRankedDetail(ctx, deep, 3); return st, err },
	} {
		st, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if n := opened(st); n == 0 || n > 2 {
			t.Errorf("%s deep inside one cluster read pages of %d shards, want 1 or 2: %+v", name, n, st.PerShard)
		}
	}

	// Halfway between the clusters at (−20, −20) and (20, −20), vague enough
	// in x for both to be plausible: neither can be ruled out unread.
	between := pfv.MustNew(0, []float64{0, -20}, []float64{15, 0.3})
	_, st, err := e.KMLIQDetail(ctx, between, 3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	boxes := make([]core.ParamBox, 4)
	for i := range boxes {
		if boxes[i], _, err = e.trees[i].RootBox(); err != nil {
			t.Fatal(err)
		}
	}
	for i, ps := range st.PerShard {
		lower := boxes[i].Mu[1].Hi < 0 // the two shards at y = −20
		if lower && ps.PageAccesses == 0 {
			t.Errorf("query on the cut plane left neighbour shard %d unread: %+v", i, st.PerShard)
		}
	}
}

// TestShardedPagesNearOneTree: the point of the partition, as a count. Over a
// 20 000-vector stand-in for the benchmark's data set 2, a 4-shard 3-MLIQ must
// read at most 1.15 × the pages the one tree over the same data reads (hash
// routing read 1.6 ×: every query descended four trees). The stand-in has the
// benchmark's shape — 2 KiB pages make the one tree a level taller than its
// shards, as 100 000 vectors do at 8 KiB — so the four roots stand where the
// one tree has its second level. Where a shard is as tall as the one tree
// (these vectors at 8 KiB: three levels each), every shard a query opens
// costs a root page the one tree has no counterpart of: 1.18 ×, held to 1.25.
func TestShardedPagesNearOneTree(t *testing.T) {
	p := dataset.DefaultSyntheticParams()
	p.N = 20000
	ds, err := dataset.Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: 200, Sigma: p.Sigma, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		pageSize int
		taller   bool // the one tree than a shard
		gate     float64
	}{{2048, true, 1.15}, {pagefile.DefaultPageSize, false, 1.25}} {
		single, engines := buildEngines(t, ds.Vectors, ds.Dim, c.pageSize, 4)
		var one, four uint64
		for _, q := range qs {
			_, st, err := single.KMLIQ(ctx, q.Vector, 3, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			one += st.PageAccesses
			if _, st, err = engines[0].KMLIQ(ctx, q.Vector, 3, 1e-6); err != nil {
				t.Fatal(err)
			}
			four += st.PageAccesses
		}
		if taller := single.Height() > engines[0].trees[0].Height(); taller != c.taller {
			t.Fatalf("%d-byte pages: the one tree has %d levels, a shard %d", c.pageSize, single.Height(), engines[0].trees[0].Height())
		}
		t.Logf("%d-byte pages: %d queries read %d pages of the one tree, %d of four shards (%.3f ×)", c.pageSize, len(qs), one, four, float64(four)/float64(one))
		if float64(four) > c.gate*float64(one) {
			t.Errorf("%d-byte pages: four shards read %d pages, the one tree %d: more than %v ×", c.pageSize, four, one, c.gate)
		}
	}
}

// TestPartitioners: BulkLoad cuts by parameter space — every shard count gets
// the loader's proportional k/2 : k−k/2 cuts, the groups tile one axis at the
// first cut — and Insert is the tree's path selection one level up: the first
// vectors seed the empty shards, a vector inside one root box joins it, one
// outside all goes where the box grows least.
func TestPartitioners(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	vs := clustered(rng, 1001, 2, 6)
	for _, n := range []int{2, 3, 4, 7} {
		e, trees := newEngine(t, n, 2, 1024)
		if err := e.BulkLoad(vs); err != nil {
			t.Fatal(err)
		}
		var want []int
		var cuts func(size, k int)
		cuts = func(size, k int) {
			if k == 1 {
				want = append(want, size)
				return
			}
			cuts(size*(k/2)/k, k/2)
			cuts(size-size*(k/2)/k, k-k/2)
		}
		cuts(len(vs), n)
		if got := e.Counts(); !slices.Equal(got, want) {
			t.Errorf("%d shards hold %v vectors, the proportional cuts give %v", n, got, want)
		}
		// The first cut is a plane: along some axis, everything in the first
		// k/2 shards lies at or below everything in the others.
		var left, right core.ParamBox
		for i, tr := range trees {
			box, _, err := tr.RootBox()
			if err != nil {
				t.Fatal(err)
			}
			side := &right
			if i < n/2 {
				side = &left
			}
			if side.Mu == nil {
				*side = box
			} else {
				side.ExtendBox(box)
			}
		}
		separated := false
		for d := range left.Mu {
			separated = separated || left.Mu[d].Hi <= right.Mu[d].Lo || left.Sigma[d].Hi <= right.Sigma[d].Lo
		}
		if !separated {
			t.Errorf("%d shards: no axis separates the first cut's halves: %v | %v", n, left, right)
		}
	}

	e, trees := newEngine(t, 3, 2, 1024)
	at := func(x, y float64, id uint64) pfv.Vector {
		return pfv.MustNew(id, []float64{x, y}, []float64{0.5, 0.5})
	}
	seeds := []pfv.Vector{at(0, 0, 1), at(100, 0, 2), at(0, 100, 3)}
	for _, v := range seeds {
		if err := e.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Counts(); !slices.Equal(got, []int{1, 1, 1}) {
		t.Fatalf("three inserts into three empty shards landed %v, want one each", got)
	}
	if err := e.Insert(at(98, 1, 4)); err != nil { // nearest the seed at (100, 0)
		t.Fatal(err)
	}
	if err := e.Insert(at(99, 0.5, 5)); err != nil { // inside shard 1's box now
		t.Fatal(err)
	}
	if _, err := e.InsertAll([]pfv.Vector{at(1, 97, 6), at(0.5, 99, 7), at(2, 1, 8)}); err != nil {
		t.Fatal(err)
	}
	if got := e.Counts(); !slices.Equal(got, []int{2, 3, 3}) {
		t.Errorf("routed inserts landed %v, want [2 3 3]", got)
	}
	for i, tr := range trees {
		box, _, err := tr.RootBox()
		if err != nil {
			t.Fatal(err)
		}
		if !box.ContainsVector(seeds[i]) {
			t.Errorf("shard %d's root box %v lost its seed", i, box)
		}
	}
}

// TestShardedMutationsAndDelete: routed inserts and deletes behave like one
// logical tree — Delete finds a vector wherever Insert, InsertAll or BulkLoad
// put it, reading only shards whose root box contains it, and copies of one
// vector on two shards go one per call.
func TestShardedMutationsAndDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	vs := clustered(rng, 300, 2, 3)
	e, trees := newEngine(t, 3, 2, 1024)
	if err := e.BulkLoad(vs[:100]); err != nil {
		t.Fatal(err)
	}
	for _, v := range vs[100:150] {
		if err := e.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.InsertAll(vs[150:]); err != nil {
		t.Fatal(err)
	}
	if e.Len() != len(vs) {
		t.Fatalf("Len=%d, want %d", e.Len(), len(vs))
	}
	seen := map[uint64]bool{}
	for _, v := range contents(t, e) {
		seen[v.ID] = true
	}
	if len(seen) != len(vs) {
		t.Fatalf("ForEach saw %d distinct ids, want %d", len(seen), len(vs))
	}
	for _, j := range []int{0, 50, 99, 100, 125, 149, 150, 225, 299} {
		v := vs[j]
		contains := make([]bool, len(trees))
		for i, tr := range trees {
			box, _, err := tr.RootBox()
			if err != nil {
				t.Fatal(err)
			}
			contains[i] = box.ContainsVector(v)
			tr.Manager().ResetStats()
		}
		found, err := e.Delete(v)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("Delete(%d) did not find the vector", v.ID)
		}
		for i, tr := range trees {
			if tr.Manager().Stats().LogicalReads > 0 && !contains[i] {
				t.Errorf("Delete(%d) read pages of shard %d, whose root box does not contain it", v.ID, i)
			}
		}
		if found, _ := e.Delete(v); found {
			t.Fatalf("second Delete(%d) found a copy", v.ID)
		}
	}
	if e.Len() != len(vs)-9 {
		t.Fatalf("Len after deletes = %d, want %d", e.Len(), len(vs)-9)
	}

	// The same vector on two shards (an index built before routing went by
	// parameter space may hold such): one copy goes per call.
	twin := vs[10]
	if err := trees[0].Insert(twin); err != nil {
		t.Fatal(err)
	}
	if err := trees[2].Insert(twin); err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 4; call++ {
		found, err := e.Delete(twin)
		if err != nil {
			t.Fatal(err)
		}
		if found != (call <= 3) {
			t.Fatalf("Delete call %d of a vector stored three times: found=%v", call, found)
		}
	}
	for i, tr := range trees {
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
	}
}

// TestConformanceAcrossPartitions: whatever the shard count and however the
// partition came about — cut by BulkLoad, grown by Insert, thinned by Delete,
// with a shard emptied — every query type reports the ids the one tree over
// the same contents reports, every interval is within accuracy and contains
// the exact posterior, and no object at or above a threshold is missed.
func TestConformanceAcrossPartitions(t *testing.T) {
	const dim, accuracy = 3, 1e-5
	rng := rand.New(rand.NewSource(53))
	vs := clustered(rng, 600, dim, 5)
	queries := make([]pfv.Vector, 10)
	for i := range queries {
		queries[i] = reobserved(rng, vs[rng.Intn(len(vs))])
	}
	scenarios := []struct {
		name  string
		build func(e *Engine) error
	}{
		{"bulk-loaded", func(e *Engine) error { return e.BulkLoad(vs) }},
		{"insert-built", func(e *Engine) error {
			for _, v := range vs {
				if err := e.Insert(v); err != nil {
					return err
				}
			}
			return nil
		}},
		{"a third deleted", func(e *Engine) error {
			if err := e.BulkLoad(vs); err != nil {
				return err
			}
			for i := 0; i < len(vs); i += 3 {
				if found, err := e.Delete(vs[i]); err != nil || !found {
					return fmt.Errorf("delete %d: found=%v, %v", vs[i].ID, found, err)
				}
			}
			return nil
		}},
		{"one shard emptied", func(e *Engine) error {
			if err := e.BulkLoad(vs); err != nil {
				return err
			}
			last, err := e.trees[len(e.trees)-1].CollectAll()
			if err != nil {
				return err
			}
			for _, v := range last {
				if found, err := e.Delete(v); err != nil || !found {
					return fmt.Errorf("delete %d: found=%v, %v", v.ID, found, err)
				}
			}
			return nil
		}},
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2, 3, 4, 7} {
		for _, sc := range scenarios {
			name := fmt.Sprintf("%d shards, %s", shards, sc.name)
			e, _ := newEngine(t, shards, dim, 1024)
			if err := sc.build(e); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			stored := contents(t, e)
			one := newTree(t, dim, 1024)
			if err := one.BulkLoad(stored); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				post := map[uint64]float64{}
				for i, p := range pfv.Posterior(gaussian.CombineAdditive, stored, q) {
					post[stored[i].ID] = p
				}
				check := func(op string, got, want []query.Result, certified bool) {
					t.Helper()
					if len(got) != len(want) {
						t.Errorf("%s query %d %s: %d results, the one tree %d", name, qi, op, len(got), len(want))
						return
					}
					for i, g := range got {
						if g.Vector.ID != want[i].Vector.ID {
							t.Errorf("%s query %d %s rank %d: id %d, the one tree %d", name, qi, op, i, g.Vector.ID, want[i].Vector.ID)
						}
						if !certified {
							continue
						}
						if p := post[g.Vector.ID]; g.ProbLow-1e-12 > p || p > g.ProbHigh+1e-12 || g.ProbHigh-g.ProbLow > accuracy+1e-12 {
							t.Errorf("%s query %d %s id %d: [%v, %v] for posterior %v at accuracy %v", name, qi, op, g.Vector.ID, g.ProbLow, g.ProbHigh, p, accuracy)
						}
					}
				}
				got, _, err := e.KMLIQ(ctx, q, 4, accuracy)
				want, _, werr := one.KMLIQ(ctx, q, 4, accuracy)
				if err != nil || werr != nil {
					t.Fatal(err, werr)
				}
				check("kmliq", got, want, true)
				got, _, err = e.KMLIQRanked(ctx, q, 4)
				want, _, werr = one.KMLIQRanked(ctx, q, 4)
				if err != nil || werr != nil {
					t.Fatal(err, werr)
				}
				check("ranked", got, want, false)
				for _, theta := range []float64{0, 0.05, 0.8, 1} {
					got, _, err = e.TIQ(ctx, q, theta, accuracy)
					want, _, werr = one.TIQ(ctx, q, theta, accuracy)
					if err != nil || werr != nil {
						t.Fatal(err, werr)
					}
					check(fmt.Sprintf("tiq(%v)", theta), got, want, true)
					in := map[uint64]bool{}
					for _, g := range got {
						in[g.Vector.ID] = true
					}
					for id, p := range post {
						if math.Abs(p-theta) > 1e-9 && in[id] != (p >= theta) {
							t.Errorf("%s query %d tiq(%v): id %d with posterior %v reported=%v", name, qi, theta, id, p, in[id])
						}
					}
				}
			}
		}
	}
}

// TestReadersBesideWriterOutsideRootBoxes: a 4-shard index is queried while a
// writer keeps inserting vectors that lie outside every current root box —
// each insert grows some shard's box — and the queries ask for exactly those
// vectors. A coordinator that pruned a shard with any box but the one of the
// snapshot its cursor pinned would skip a shard that holds the answer. Every
// answer that can be paired with a scan of the same published snapshots is
// checked against that scan. Meant for -race.
func TestReadersBesideWriterOutsideRootBoxes(t *testing.T) {
	const dim, base, grow = 2, 800, 300
	rng := rand.New(rand.NewSource(59))
	vs := clustered(rng, base, dim, 4)
	e, _ := newEngine(t, 4, dim, 1024)
	if err := e.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	// The writer walks outward along the diagonal, each vector beyond every
	// box so far.
	outside := make([]pfv.Vector, grow)
	for i := range outside {
		x := 12 + float64(i)
		outside[i] = pfv.MustNew(uint64(base+i+1), []float64{x, x}, []float64{0.3, 0.3})
	}

	var wg sync.WaitGroup
	var written atomic.Int64
	writerDone := make(chan struct{})
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for _, v := range outside {
			if err := e.Insert(v); err != nil {
				errs <- err
				return
			}
			written.Add(1)
		}
	}()
	var verified, underWriter atomic.Int64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for quiet := 0; quiet < 5; {
				writing := true
				select {
				case <-writerDone:
					writing = false
				default:
				}
				// Ask for the newest vector, or for something in the base set.
				q := vs[r.Intn(base)]
				if w := written.Load(); w > 0 && r.Intn(3) > 0 {
					q = outside[w-1]
				}
				// The writer only inserts, so the published count grows with
				// every publish: an unchanged count says every read below saw
				// the same snapshots. (The publish epoch cannot say it: a
				// snapshot is stored before its epoch advances.)
				before := e.Len()
				ranked, _, err := e.KMLIQRanked(ctx, q, 3)
				if err != nil {
					errs <- err
					return
				}
				refined, _, err := e.KMLIQ(ctx, q, 3, 1e-6)
				if err != nil {
					errs <- err
					return
				}
				hits, _, err := e.TIQ(ctx, q, 0.2, 1e-6)
				if err != nil {
					errs <- err
					return
				}
				var stored []pfv.Vector
				if err := e.ForEach(func(v pfv.Vector) error { stored = append(stored, v); return nil }); err != nil {
					errs <- err
					return
				}
				if e.Len() != before {
					continue // a publish fell between the answers and the scan
				}
				post := pfv.Posterior(gaussian.CombineAdditive, stored, q)
				order := make([]int, len(stored))
				for i := range order {
					order[i] = i
				}
				slices.SortFunc(order, func(a, b int) int {
					if post[a] != post[b] {
						if post[a] > post[b] {
							return -1
						}
						return 1
					}
					return int(stored[a].ID) - int(stored[b].ID)
				})
				for i, j := range order[:3] {
					if post[j]-post[order[i+1]] < 1e-9 {
						break // a tie the scan's summation order decides
					}
					if ranked[i].Vector.ID != stored[j].ID {
						errs <- fmt.Errorf("ranked rank %d: id %d, scan %d", i, ranked[i].Vector.ID, stored[j].ID)
						return
					}
					if g := refined[i]; g.Vector.ID != stored[j].ID || post[j] < g.ProbLow-1e-9 || post[j] > g.ProbHigh+1e-9 {
						errs <- fmt.Errorf("refined rank %d: id %d in [%v, %v], scan %d with P = %v", i, g.Vector.ID, g.ProbLow, g.ProbHigh, stored[j].ID, post[j])
						return
					}
				}
				in := map[uint64]bool{}
				for _, h := range hits {
					in[h.Vector.ID] = true
				}
				for i, p := range post {
					if math.Abs(p-0.2) > 1e-9 && in[stored[i].ID] != (p >= 0.2) {
						errs <- fmt.Errorf("tiq(0.2): id %d with P = %v reported=%v", stored[i].ID, p, in[stored[i].ID])
						return
					}
				}
				verified.Add(1)
				if writing {
					underWriter.Add(1)
				} else {
					quiet++
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if e.Len() != base+grow {
		t.Fatalf("Len = %d, want %d", e.Len(), base+grow)
	}
	t.Logf("%d answers verified, %d of them while the writer ran", verified.Load(), underWriter.Load())
}
