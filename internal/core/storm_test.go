package core

import (
	"context"
	"testing"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/pagefile"
)

// TestWritesLandWithoutStorm runs the benchmark's writer mix — an insert of
// a fresh observation, every fifth op a delete of the oldest insert still
// stored — against a bulk-loaded DS2 tree. With leaves loaded below full and
// a 40 % minimum fill, no delete dissolves its leaf (a condense would
// re-insert the rest of it) and an op writes a handful of pages; when leaves
// were loaded full and the minimum was half, the first insert into a leaf
// split it and the first delete from the split's smaller half dissolved it:
// the parent (commit 4ee00dd) dissolved 47 leaves in the 200 deletes here and
// wrote 24.6 pages per op.
func TestWritesLandWithoutStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk-loads 20 000 vectors")
	}
	const ops = 1000
	tr, _ := ds2Tree(t, 20000, 1, 1)
	fresh := ds2Observations(t, 20000, ops, 3)
	before := tr.mgr.Stats()
	inserted, deleted, dissolved := 0, 0, 0
	for op := 1; op <= ops; op++ {
		if op%5 != 0 {
			if err := tr.Insert(fresh[inserted]); err != nil {
				t.Fatal(err)
			}
			inserted++
			continue
		}
		v := fresh[deleted]
		path, found, err := tr.findPath(v)
		if err != nil || !found {
			t.Fatalf("op %d: find inserted vector %d: found=%v err=%v", op, v.ID, found, err)
		}
		if leaf := path[len(path)-1].node; len(path) > 1 && leaf.entryCount()-1 < tr.minLeaf {
			dissolved++
		}
		if ok, err := tr.Delete(v); err != nil || !ok {
			t.Fatalf("op %d: delete: ok=%v err=%v", op, ok, err)
		}
		deleted++
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	perOp := float64(tr.mgr.Stats().Writes-before.Writes) / ops
	t.Logf("%d inserts, %d deletes: %d leaves dissolved, %.2f page writes per op", inserted, deleted, dissolved, perOp)
	if dissolved != 0 {
		t.Errorf("%d of %d deletes dissolved their leaf", dissolved, deleted)
	}
	if perOp > 6 {
		t.Errorf("%.2f page writes per op, want at most 6", perOp)
	}
}

// bulkPagesParent holds the mean 3-MLIQ pages/query (accuracy 1e-6, 300
// queries of seed 7) over bulk-loaded DS2 trees as the parent of the
// below-full leaf fill (commit 4ee00dd, leaves loaded full) built them, for
// N = 20 000, 50 000, 100 000 (rows) and SyntheticParams.Seed 11–14 (columns).
var bulkPagesParent = [3][4]float64{
	{30.563, 29.397, 33.670, 32.003},
	{63.340, 54.623, 60.417, 61.747},
	{98.240, 101.460, 96.793, 95.493},
}

// TestBulkFillReadsLikeFullLeaves: leaves loaded with two free slots cost a
// query about what full leaves did. One data set's tree shape swings a query's
// pages by ±10 % either way, so the bound is on the mean over twelve sets.
func TestBulkFillReadsLikeFullLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk-loads 680 000 vectors")
	}
	var got, parent float64
	for i, n := range []int{20000, 50000, 100000} {
		for j := range bulkPagesParent[i] {
			p := dataset.DefaultSyntheticParams()
			p.N, p.Seed = n, int64(11+j)
			pages := meanKMLIQPages(t, p, 300)
			t.Logf("N %d seed %d: %.3f pages/query, parent %.3f", n, p.Seed, pages, bulkPagesParent[i][j])
			got += pages
			parent += bulkPagesParent[i][j]
		}
	}
	if got > 1.02*parent {
		t.Errorf("mean pages/query %.3f, parent %.3f: more than 2 %% above", got/12, parent/12)
	}
}

// meanKMLIQPages bulk-loads the data set p generates and returns the mean
// pages a certified 3-MLIQ reads over queries of seed 7.
func meanKMLIQPages(tb testing.TB, p dataset.SyntheticParams, queries int) float64 {
	tb.Helper()
	ds, err := dataset.Synthetic(p)
	if err != nil {
		tb.Fatal(err)
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: queries, Sigma: p.Sigma, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	tr := newTree(tb, ds.Dim, pagefile.DefaultPageSize, Config{})
	if err := tr.BulkLoad(ds.Vectors); err != nil {
		tb.Fatal(err)
	}
	var pages uint64
	for _, q := range qs {
		_, st, err := tr.KMLIQ(context.Background(), q.Vector, 3, 1e-6)
		if err != nil {
			tb.Fatal(err)
		}
		pages += st.PageAccesses
	}
	return float64(pages) / float64(len(qs))
}
