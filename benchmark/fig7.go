package main

import (
	"context"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/eval"
)

// fig7 pins the paper's Fig. 7 quantity — logical pages per 1-MLIQ — for
// the Gauss-tree and its three competitors on data set 1 at full size and
// on a 20 000-vector subset of data set 2, through internal/eval. Counts
// only; they do not depend on the workload.
func fig7(ctx context.Context, sz sizes, seed int64, out values) error {
	hp := dataset.DefaultHistogramParams()
	sp := dataset.DefaultSyntheticParams()
	sp.N = 20000
	queries := 100
	if sz.n < fullSizes.n { // smoke
		hp.N, sp.N, queries = sz.n/2, sz.n/2, 10
	}
	hp.Seed, sp.Seed = subSeed(seed, 4), subSeed(seed, 5)
	ds1, err := dataset.ColorHistograms(hp)
	if err != nil {
		return err
	}
	ds2, err := dataset.Synthetic(sp)
	if err != nil {
		return err
	}
	for _, set := range []struct {
		prefix string
		ds     *dataset.Dataset
		sigma  dataset.SigmaModel
	}{{"fig7.ds1.", ds1, hp.Sigma}, {"fig7.ds2.", ds2, sp.Sigma}} {
		qs, err := dataset.MakeQueries(set.ds, dataset.QueryParams{Count: queries, Sigma: set.sigma, Seed: subSeed(seed, 6)})
		if err != nil {
			return err
		}
		e, err := eval.Build(set.ds, eval.Setup{})
		if err != nil {
			return err
		}
		names := map[string]string{"Seq. Scan": "scan", "X-Tree": "xtree", "VA-File": "vafile", "Gauss-Tree": "gausstree"}
		for _, eng := range e.All() {
			eng.Mgr.DropCache()
			var pages uint64
			for _, q := range qs {
				_, st, err := eng.Engine.KMLIQRanked(ctx, q.Vector, 1)
				if err != nil {
					return err
				}
				pages += st.PageAccesses
			}
			out.set(set.prefix+names[eng.Label]+"_pages_per_query", float64(pages)/float64(len(qs)), len(qs))
		}
	}
	return nil
}
