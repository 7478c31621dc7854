package eval

import (
	"reflect"
	"strings"
	"testing"

	"github.com/gauss-tree/gausstree/internal/dataset"
)

// smallWorld builds a reduced data-set-2-style world for fast tests.
func smallWorld(t *testing.T, n, queries int) (*Engines, *dataset.Dataset, []dataset.Query) {
	t.Helper()
	p := dataset.DefaultSyntheticParams()
	p.N = n
	ds, err := dataset.Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{
		Count: queries, Sigma: p.Sigma, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(ds, Setup{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return e, ds, qs
}

func TestBuildEnginesConsistent(t *testing.T) {
	e, ds, _ := smallWorld(t, 1500, 1)
	if e.Tree.Len() != len(ds.Vectors) || e.Scan.Len() != len(ds.Vectors) ||
		e.X.Len() != len(ds.Vectors) || e.VA.Len() != len(ds.Vectors) {
		t.Errorf("engine sizes: tree=%d scan=%d x=%d va=%d want %d",
			e.Tree.Len(), e.Scan.Len(), e.X.Len(), e.VA.Len(), len(ds.Vectors))
	}
	if err := e.Tree.CheckInvariants(); err != nil {
		t.Errorf("tree: %v", err)
	}
	if err := e.X.CheckInvariants(); err != nil {
		t.Errorf("xtree: %v", err)
	}
	if got := len(e.All()); got != 4 {
		t.Errorf("All() returned %d engines, want 4", got)
	}
	if e.All()[0].Label != "Seq. Scan" {
		t.Errorf("baseline engine must come first, got %q", e.All()[0].Label)
	}
}

func TestFigure6ShapeAndBounds(t *testing.T) {
	e, ds, qs := smallWorld(t, 1500, 40)
	rep, err := Figure6(e, ds, qs, []int{1, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	prevNN := 0.0
	for i, row := range rep.Rows {
		for _, v := range []float64{row.RecallNN, row.PrecisionNN, row.RecallMLIQ, row.PrecisionMLIQ} {
			if v < 0 || v > 1 {
				t.Errorf("row %d: metric out of range: %+v", i, row)
			}
		}
		// Recall grows (weakly) with the result size; precision = recall/x.
		if row.RecallNN+1e-12 < prevNN {
			t.Errorf("NN recall decreased: %+v", rep.Rows)
		}
		prevNN = row.RecallNN
		if diff := row.PrecisionNN - row.RecallNN/float64(row.Multiplier); diff > 1e-12 || diff < -1e-12 {
			t.Errorf("precision definition violated: %+v", row)
		}
	}
	// At x1 precision equals recall by construction.
	if rep.Rows[0].PrecisionNN != rep.Rows[0].RecallNN {
		t.Error("x1 precision must equal recall")
	}
	// The paper's core claim: the probabilistic model identifies far better
	// than plain NN on means.
	if rep.Rows[0].RecallMLIQ <= rep.Rows[0].RecallNN {
		t.Errorf("MLIQ recall %.2f should beat NN recall %.2f",
			rep.Rows[0].RecallMLIQ, rep.Rows[0].RecallNN)
	}
	out := rep.Format()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "x1") {
		t.Errorf("Format output malformed:\n%s", out)
	}
}

func TestFigure7ShapeAndBounds(t *testing.T) {
	e, ds, qs := smallWorld(t, 2000, 10)
	rep, err := Figure7(e, ds, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 12 { // 4 engines × 3 query types
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	var scanMLIQ, treeMLIQ *Fig7Cell
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Pages <= 0 {
			t.Errorf("cell %s/%s: zero pages", c.Engine, c.QueryType)
		}
		if c.Engine == "Seq. Scan" && c.QueryType == "1-MLIQ" {
			scanMLIQ = c
		}
		if c.Engine == "Gauss-Tree" && c.QueryType == "1-MLIQ" {
			treeMLIQ = c
		}
	}
	if scanMLIQ == nil || treeMLIQ == nil {
		t.Fatal("missing cells")
	}
	// Scan page count is exactly the file size for one scan.
	if int(scanMLIQ.Pages) != len(e.Scan.Pages()) {
		t.Errorf("scan MLIQ pages = %v, file has %d", scanMLIQ.Pages, len(e.Scan.Pages()))
	}
	// The headline efficiency claim, in shape: fewer pages for the tree.
	if treeMLIQ.Pages >= scanMLIQ.Pages {
		t.Errorf("Gauss-tree MLIQ pages %v should undercut scan %v", treeMLIQ.Pages, scanMLIQ.Pages)
	}
	if sp := rep.SpeedupOver("Gauss-Tree", "1-MLIQ"); sp <= 1 {
		t.Errorf("speedup = %v, want > 1", sp)
	}
	if sp := rep.SpeedupOver("No-Such", "1-MLIQ"); sp != 0 {
		t.Errorf("missing engine speedup = %v, want 0", sp)
	}
	// Seeks come from the same stats as the modeled I/O: at most one per
	// page read, and the scan's pages follow one another on disk.
	for _, c := range rep.Cells {
		if c.Seeks < 0 || c.Seeks > c.Pages {
			t.Errorf("cell %s/%s: %v seeks per query over %v pages", c.Engine, c.QueryType, c.Seeks, c.Pages)
		}
	}
	if scanMLIQ.Seeks >= treeMLIQ.Seeks {
		t.Errorf("scan MLIQ seeks %v should undercut the Gauss-tree's %v", scanMLIQ.Seeks, treeMLIQ.Seeks)
	}
	out := rep.Format()
	if !strings.Contains(out, "Gauss-Tree") || !strings.Contains(out, "TIQ(P=0.8)") || !strings.Contains(out, "seeks/q") {
		t.Errorf("Format output malformed:\n%s", out)
	}
}

// TestAblations runs the design-choice report at N = 2 000. Ablations itself
// refuses a variant whose tree fails CheckInvariants, so a nil error pins
// that all nine built trees hold them.
func TestAblations(t *testing.T) {
	e, ds, qs := smallWorld(t, 2000, 20)
	rep, err := Ablations(ds, qs, Setup{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	a4 := map[string]AblationRow{}
	for _, row := range rep.Rows {
		count[row.Ablation+"/"+row.Build]++
		if row.Pages <= 0 || row.Recall < 0 || row.Recall > 1 {
			t.Errorf("implausible row %+v", row)
		}
		if row.Ablation == "A4-engines" {
			a4[row.Engine] = row
		}
	}
	want := map[string]int{"A1-combiner/bulk": 2, "A2-split/bulk": 3, "A2-split/insert": 3, "A4-engines/bulk": 4}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("rows per ablation and build = %v, want %v", count, want)
	}
	// No false dismissals: the Gauss-tree ranks exactly what the scan ranks.
	if a4["Gauss-Tree"].Recall != a4["Seq. Scan"].Recall {
		t.Errorf("A4 recall@1: Gauss-tree %v, scan %v", a4["Gauss-Tree"].Recall, a4["Seq. Scan"].Recall)
	}
	// A4 is Figure 7's 1-MLIQ column: same engines, same queries, same pages.
	fig7, err := Figure7(e, ds, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fig7.Cells {
		if c.QueryType == "1-MLIQ" && a4[c.Engine].Pages != c.Pages {
			t.Errorf("%s: A4 reads %v pages/query, Figure 7 %v", c.Engine, a4[c.Engine].Pages, c.Pages)
		}
	}
	if out := rep.Format(); !strings.Contains(out, "A2-split") || !strings.Contains(out, "hull-integral-sum") || !strings.Contains(out, "insert") {
		t.Errorf("Format output malformed:\n%s", out)
	}
}

func TestFigure6NoMultipliers(t *testing.T) {
	e, ds, qs := smallWorld(t, 500, 2)
	if _, err := Figure6(e, ds, qs, nil); err == nil {
		t.Error("empty multipliers should fail")
	}
}
