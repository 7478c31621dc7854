package eval

import (
	"context"
	"fmt"
	"strings"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/query"
)

// AblationRow is one variant of one design-choice comparison, measured with
// one ranked 1-MLIQ per query, the buffer cache cold-started once before the
// first query and shared across them.
type AblationRow struct {
	Ablation string  // "A1-combiner", "A2-split" or "A4-engines"
	Engine   string  // report label, as in Engines.All
	Variant  string  // the choice under comparison; empty for A4
	Build    string  // how the Gauss-tree was built: "bulk" or "insert"
	Pages    float64 // mean logical page accesses per query
	Recall   float64 // recall@1 against the generating object
}

// AblationReport is the design-choice comparison for one data set.
type AblationReport struct {
	Dataset string
	Queries int
	Rows    []AblationRow
}

// Ablations measures the repository's design choices on one data set: A1, the
// σ-combination rule; A2, each split objective on a bulk-loaded and on an
// insert-built Gauss-tree — what a query must touch under each, the lens by
// which partition quality is judged; A4, all four engines of Build. Every
// Gauss-tree variant must pass CheckInvariants before it is measured.
func Ablations(ds *dataset.Dataset, queries []dataset.Query, s Setup) (*AblationReport, error) {
	s.fillDefaults()
	rep := &AblationReport{Dataset: ds.Name, Queries: len(queries)}
	tree := func(ablation, variant string, v Setup) error {
		tr, mgr, err := v.buildTree(ds)
		if err == nil {
			err = tr.CheckInvariants()
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", ablation, variant, err)
		}
		row, err := rankedOne(NamedEngine{"Gauss-Tree", tr, mgr}, queries)
		if err != nil {
			return err
		}
		row.Ablation, row.Variant, row.Build = ablation, variant, buildName(v)
		rep.Rows = append(rep.Rows, row)
		return nil
	}
	for _, comb := range []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution} {
		v := s
		v.Combiner = comb
		if err := tree("A1-combiner", comb.String(), v); err != nil {
			return nil, err
		}
	}
	for _, split := range []core.SplitObjective{core.SplitHullIntegral, core.SplitHullIntegralSum, core.SplitVolume} {
		for _, insertBuild := range []bool{false, true} {
			v := s
			v.Split, v.InsertBuild = split, insertBuild
			if err := tree("A2-split", split.String(), v); err != nil {
				return nil, err
			}
		}
	}
	e, err := Build(ds, s)
	if err == nil {
		err = e.Tree.CheckInvariants()
	}
	if err != nil {
		return nil, fmt.Errorf("A4-engines: %w", err)
	}
	for _, eng := range e.All() {
		row, err := rankedOne(eng, queries)
		if err != nil {
			return nil, err
		}
		row.Ablation, row.Build = "A4-engines", buildName(s)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func buildName(s Setup) string {
	if s.InsertBuild {
		return "insert"
	}
	return "bulk"
}

// rankedOne runs one ranked 1-MLIQ per query on an engine whose cache it
// cold-starts once, before the first, as Figure7 does for its 1-MLIQ cells.
func rankedOne(eng NamedEngine, queries []dataset.Query) (AblationRow, error) {
	eng.Mgr.ResetStats()
	eng.Mgr.DropCache()
	ctx := context.Background()
	hits := 0
	var pages uint64
	for _, q := range queries {
		res, st, err := eng.Engine.KMLIQRanked(ctx, q.Vector, 1)
		if err != nil {
			return AblationRow{}, fmt.Errorf("%s: %w", eng.Label, err)
		}
		pages += st.PageAccesses
		if query.ContainsID(res, q.TruthID) {
			hits++
		}
	}
	n := float64(len(queries))
	return AblationRow{Engine: eng.Label, Pages: float64(pages) / n, Recall: float64(hits) / n}, nil
}

// Format renders the report as an aligned text table.
func (r *AblationReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations — %s (%d queries): ranked 1-MLIQ, page accesses and recall@1\n", r.Dataset, r.Queries)
	fmt.Fprintf(&b, "%-12s %-11s %-18s %-7s %12s %9s\n", "ablation", "engine", "variant", "build", "pages/query", "recall@1")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-11s %-18s %-7s %12.1f %8.0f%%\n",
			row.Ablation, row.Engine, row.Variant, row.Build, row.Pages, 100*row.Recall)
	}
	return b.String()
}
