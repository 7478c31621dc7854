// Package eval is the experiment harness that regenerates the paper's
// evaluation (§6): the effectiveness comparison of Figure 6 (precision and
// recall of conventional nearest-neighbor search on means vs. k-MLIQ on
// probabilistic feature vectors) and the efficiency comparison of Figure 7
// (page accesses, CPU time and overall time of the Gauss-tree, the X-tree
// box-approximation baseline, and the sequential scan, for 1-MLIQ and two
// TIQ thresholds on both data sets).
//
// Metric conventions: every query has exactly one correct answer (its
// generating object); recall@x is the fraction of queries whose correct
// object appears in the top 3·x results; precision@x
// is recall@x divided by x, which equals recall at x1 — matching the paper's
// "percentage of queries that retrieved the correct object" — and decays
// with oversized result sets as in the paper's curves. "Page accesses" are
// logical page requests against the shared buffer manager; "overall time"
// is measured CPU time plus modeled I/O time (seek + transfer) under
// pagefile's disk cost model, with the cache cold-started once per engine
// and query kind and shared across that kind's queries (Figure7).
package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/scan"
	"github.com/gauss-tree/gausstree/internal/vafile"
	"github.com/gauss-tree/gausstree/internal/xtree"
)

// Setup configures engine construction.
type Setup struct {
	// PageSize in bytes (default 8192).
	PageSize int
	// Combiner for all probability computations.
	Combiner gaussian.Combiner
	// Split objective for the Gauss-tree.
	Split core.SplitObjective
	// InsertBuild constructs the Gauss-tree by repeated insertion instead
	// of bulk loading (slower, ~60% leaf fill): the other half of the
	// bulk-vs-insert-built comparison of Ablations.
	InsertBuild bool
}

func (s *Setup) fillDefaults() {
	if s.PageSize <= 0 {
		s.PageSize = pagefile.DefaultPageSize
	}
}

// NamedEngine pairs one competitor with its report label and its page
// manager (each engine owns a manager so page accesses stay attributable).
type NamedEngine struct {
	Label  string
	Engine query.Engine
	Mgr    *pagefile.Manager
}

// Engines bundles the four competitors built over the same data set, each
// on its own page manager so page accesses are attributable. The harness
// queries them exclusively through the query.Engine interface.
type Engines struct {
	Tree    *core.Tree
	TreeMgr *pagefile.Manager
	Scan    *scan.File
	ScanMgr *pagefile.Manager
	X       *xtree.Tree
	XMgr    *pagefile.Manager
	VA      *vafile.File
	VAData  *scan.File
	VAMgr   *pagefile.Manager

	Combiner gaussian.Combiner
}

// All returns the competitors in report order: the sequential scan first
// (every relative metric divides by it), then the index structures.
func (e *Engines) All() []NamedEngine {
	return []NamedEngine{
		{"Seq. Scan", e.Scan, e.ScanMgr},
		{"X-Tree", e.X, e.XMgr},
		{"VA-File", e.VA, e.VAMgr},
		{"Gauss-Tree", e.Tree, e.TreeMgr},
	}
}

// newManager creates one engine's page manager, with pagefile's default
// buffer cache (50 MB, the paper's).
func (s Setup) newManager() (*pagefile.Manager, error) {
	return pagefile.NewManager(pagefile.NewMemBackend(s.PageSize), s.PageSize)
}

// buildTree constructs the Gauss-tree of a bundle on its own manager.
func (s Setup) buildTree(ds *dataset.Dataset) (*core.Tree, *pagefile.Manager, error) {
	mgr, err := s.newManager()
	if err != nil {
		return nil, nil, err
	}
	tr, err := core.New(mgr, ds.Dim, core.Config{Combiner: s.Combiner, Split: s.Split})
	if err != nil {
		return nil, nil, err
	}
	if s.InsertBuild {
		_, err = tr.InsertAll(ds.Vectors)
	} else {
		err = tr.BulkLoad(ds.Vectors)
	}
	return tr, mgr, err
}

// Build constructs all four engines for a data set.
func Build(ds *dataset.Dataset, s Setup) (*Engines, error) {
	s.fillDefaults()
	e := &Engines{Combiner: s.Combiner}

	var err error
	if e.Tree, e.TreeMgr, err = s.buildTree(ds); err != nil {
		return nil, err
	}

	if e.ScanMgr, err = s.newManager(); err != nil {
		return nil, err
	}
	if e.Scan, err = scan.Create(e.ScanMgr, ds.Dim, s.Combiner); err != nil {
		return nil, err
	}
	if err = e.Scan.AppendAll(ds.Vectors); err != nil {
		return nil, err
	}

	if e.XMgr, err = s.newManager(); err != nil {
		return nil, err
	}
	if e.X, err = xtree.New(e.XMgr, ds.Dim, xtree.Config{Combiner: s.Combiner}); err != nil {
		return nil, err
	}
	if err = e.X.InsertAll(ds.Vectors); err != nil {
		return nil, err
	}

	// The VA-file filters a sequential data file; both live on one manager
	// so its filter and refinement accesses are accounted together.
	if e.VAMgr, err = s.newManager(); err != nil {
		return nil, err
	}
	if e.VAData, err = scan.Create(e.VAMgr, ds.Dim, s.Combiner); err != nil {
		return nil, err
	}
	if err = e.VAData.AppendAll(ds.Vectors); err != nil {
		return nil, err
	}
	if e.VA, err = vafile.Build(e.VAMgr, e.VAData, s.Combiner); err != nil {
		return nil, err
	}
	return e, nil
}

// Fig6Row is one multiplier row of the Figure 6 reproduction.
type Fig6Row struct {
	Multiplier    int
	RecallNN      float64
	PrecisionNN   float64
	RecallMLIQ    float64
	PrecisionMLIQ float64
}

// Fig6Report is the Figure 6 reproduction for one data set.
type Fig6Report struct {
	Dataset string
	Queries int
	Rows    []Fig6Row
}

// Figure6 reproduces the precision/recall experiment: 3·x-NN on conventional
// feature vectors (mean values, Euclidean distance) against 3·x-MLIQ on pfv,
// for the given result-set multipliers (the paper uses x1..x9).
func Figure6(e *Engines, ds *dataset.Dataset, queries []dataset.Query, multipliers []int) (*Fig6Report, error) {
	maxMult := 0
	for _, m := range multipliers {
		if m > maxMult {
			maxMult = m
		}
	}
	if maxMult == 0 {
		return nil, fmt.Errorf("eval: no multipliers")
	}
	kMax := 3 * maxMult

	// rankOf returns the 1-based position of the truth in the result list,
	// or 0 when absent.
	rankOf := func(rs []query.Result, truth uint64) int {
		for i, r := range rs {
			if r.Vector.ID == truth {
				return i + 1
			}
		}
		return 0
	}

	ctx := context.Background()
	nnHits := make([]int, kMax+1)   // nnHits[r]: queries whose truth ranked r
	mliqHits := make([]int, kMax+1) // same for the MLIQ on the Gauss-tree
	for _, q := range queries {
		nn, err := e.Scan.NearestNeighbors(q.Vector, kMax)
		if err != nil {
			return nil, err
		}
		if r := rankOf(nn, q.TruthID); r > 0 {
			nnHits[r]++
		}
		ml, _, err := e.Tree.KMLIQRanked(ctx, q.Vector, kMax)
		if err != nil {
			return nil, err
		}
		if r := rankOf(ml, q.TruthID); r > 0 {
			mliqHits[r]++
		}
	}
	cum := func(hits []int, k int) float64 {
		total := 0
		for r := 1; r <= k && r < len(hits); r++ {
			total += hits[r]
		}
		return float64(total) / float64(len(queries))
	}

	rep := &Fig6Report{Dataset: ds.Name, Queries: len(queries)}
	for _, m := range multipliers {
		recNN := cum(nnHits, 3*m)
		recML := cum(mliqHits, 3*m)
		rep.Rows = append(rep.Rows, Fig6Row{
			Multiplier:    m,
			RecallNN:      recNN,
			PrecisionNN:   recNN / float64(m),
			RecallMLIQ:    recML,
			PrecisionMLIQ: recML / float64(m),
		})
	}
	return rep, nil
}

// Format renders the report as an aligned text table.
func (r *Fig6Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — %s (%d queries): precision/recall, 3x-NN on means vs 3x-MLIQ on pfv\n", r.Dataset, r.Queries)
	fmt.Fprintf(&b, "%-5s %12s %12s %12s %12s\n", "x", "NN recall", "NN prec", "MLIQ recall", "MLIQ prec")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "x%-4d %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
			row.Multiplier, 100*row.RecallNN, 100*row.PrecisionNN,
			100*row.RecallMLIQ, 100*row.PrecisionMLIQ)
	}
	return b.String()
}

// Fig7Cell aggregates one engine × query-type measurement.
type Fig7Cell struct {
	Engine     string
	QueryType  string
	Pages      float64       // mean logical page accesses per query
	CPU        time.Duration // mean CPU time per query
	Overall    time.Duration // CPU plus modeled I/O time (cache cold once per engine × kind)
	Seeks      float64       // mean disk seeks per query, from the stats Overall's I/O time uses
	AllocsPerQ float64       // mean heap allocations per query
	PagesPct   float64       // relative to the sequential scan, in percent
	CPUPct     float64
	OverallPct float64
}

// Fig7Report is the Figure 7 reproduction for one data set.
type Fig7Report struct {
	Dataset string
	Queries int
	Cells   []Fig7Cell
}

// queryKind identifies one of the three measured query types.
type queryKind struct {
	name   string
	thresh float64 // <0 means 1-MLIQ
}

// runKind dispatches one measured query kind on any engine: thresh < 0 is
// the ranked 1-MLIQ (the paper's Figure 7 measures the plain MLIQ of §5.2.1,
// which ranks without computing probability values; KMLIQ with probability
// refinement is timed by BenchmarkKMLIQHot/refined), otherwise a TIQ at the
// given threshold.
func runKind(ctx context.Context, eng query.Engine, q dataset.Query, thresh float64) (query.Stats, error) {
	if thresh < 0 {
		_, st, err := eng.KMLIQRanked(ctx, q.Vector, 1)
		return st, err
	}
	_, st, err := eng.TIQ(ctx, q.Vector, thresh, 0)
	return st, err
}

// Figure7 reproduces the efficiency experiment — 1-MLIQ, TIQ(Pθ=0.8) and
// TIQ(Pθ=0.2) — on every engine of the bundle: the sequential scan, the
// X-tree with 95% hyper-rectangle approximations, the VA-file and the
// Gauss-tree, all driven through the uniform query.Engine interface. Each
// engine's buffer cache is cold-started once per query kind and shared
// across that kind's queries: a page's modeled I/O is paid by its first
// query only.
func Figure7(e *Engines, ds *dataset.Dataset, queries []dataset.Query) (*Fig7Report, error) {
	kinds := []queryKind{
		{"1-MLIQ", -1},
		{"TIQ(P=0.8)", 0.8},
		{"TIQ(P=0.2)", 0.2},
	}
	ctx := context.Background()
	rep := &Fig7Report{Dataset: ds.Name, Queries: len(queries)}
	scanBase := map[string]Fig7Cell{}
	for _, eng := range e.All() {
		for _, kind := range kinds {
			// The buffer cache is cold-started once per engine and
			// query kind, then shared across the kind's queries.
			eng.Mgr.ResetStats()
			eng.Mgr.DropCache()
			var cpu time.Duration
			var io pagefile.Stats // summed per query: the disk cost model is linear
			var pages uint64
			var mem0, mem1 runtime.MemStats
			runtime.ReadMemStats(&mem0)
			for _, q := range queries {
				before := eng.Mgr.Stats()
				start := time.Now()
				st, err := runKind(ctx, eng.Engine, q, kind.thresh)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", eng.Label, kind.name, err)
				}
				cpu += time.Since(start)
				pages += st.PageAccesses
				io = io.Add(eng.Mgr.Stats().Sub(before))
			}
			runtime.ReadMemStats(&mem1)
			n := time.Duration(len(queries))
			cell := Fig7Cell{
				Engine:     eng.Label,
				QueryType:  kind.name,
				Pages:      float64(pages) / float64(len(queries)),
				CPU:        cpu / n,
				Overall:    (cpu + eng.Mgr.CostModel().IOTime(io)) / n,
				Seeks:      float64(io.Seeks) / float64(len(queries)),
				AllocsPerQ: float64(mem1.Mallocs-mem0.Mallocs) / float64(len(queries)),
			}
			if eng.Label == "Seq. Scan" {
				scanBase[kind.name] = cell
			}
			base := scanBase[kind.name]
			if base.Pages > 0 {
				cell.PagesPct = 100 * cell.Pages / base.Pages
				cell.CPUPct = 100 * float64(cell.CPU) / float64(base.CPU)
				cell.OverallPct = 100 * float64(cell.Overall) / float64(base.Overall)
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

// Format renders the report as an aligned text table.
func (r *Fig7Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — %s (%d queries; cache cold-started once per engine and query kind, shared across its queries): page accesses / CPU / overall time, %% of sequential scan\n",
		r.Dataset, r.Queries)
	fmt.Fprintf(&b, "%-12s %-12s %10s %8s %12s %8s %12s %8s %8s %10s\n",
		"engine", "query", "pages", "pct", "cpu", "pct", "overall", "pct", "seeks/q", "allocs/q")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-12s %-12s %10.1f %7.1f%% %12s %7.1f%% %12s %7.1f%% %8.1f %10.0f\n",
			c.Engine, c.QueryType, c.Pages, c.PagesPct,
			c.CPU.Round(time.Microsecond), c.CPUPct,
			c.Overall.Round(time.Microsecond), c.OverallPct, c.Seeks, c.AllocsPerQ)
	}
	return b.String()
}

// SpeedupOver returns base/val as a factor (e.g. page-access speedup of the
// Gauss-tree over the scan); 0 when the cell is missing.
func (r *Fig7Report) SpeedupOver(engine, queryType string) float64 {
	var eng, base *Fig7Cell
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.QueryType != queryType {
			continue
		}
		switch c.Engine {
		case engine:
			eng = c
		case "Seq. Scan":
			base = c
		}
	}
	if eng == nil || base == nil || eng.Pages == 0 {
		return 0
	}
	return base.Pages / eng.Pages
}
