// Command gaussbench prints the tables and figures of the paper's evaluation
// (§6) plus this repository's ablations, as aligned text tables at paper
// scale. internal/eval computes every number; all engines are driven through
// the uniform query.Engine interface, so adding a backend to eval.Build adds
// it to every comparison here.
//
// Usage:
//
//	gaussbench -exp all                 # everything (several minutes)
//	gaussbench -exp fig6a,fig7ds2       # selected experiments
//	gaussbench -exp headline -quick     # reduced data sizes for smoke runs
//
// Experiments: fig1, fig6a, fig6b, fig7ds1, fig7ds2, headline, ablations; an
// unknown name exits 2. The two flags are -exp and -quick: sizes, seeds and
// the page size are the paper's. Throughput, latency, reopen, WAL and
// shard-scaling numbers are the business of the benchmark of record
// (./benchmark), which also pins the fig7 page counts; healing under faults
// is asserted by TestChaosHarness and scripts/chaos-smoke.sh.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/eval"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// experiments are the names -exp accepts, besides "all".
var experiments = []string{"fig1", "fig6a", "fig6b", "fig7ds1", "fig7ds2", "headline", "ablations"}

// parseExperiments resolves the -exp list into the set of experiments to
// run; a name that is neither an experiment nor "all" is an error.
func parseExperiments(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			for _, e := range experiments {
				want[e] = true
			}
			continue
		}
		if !slices.Contains(experiments, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", name, strings.Join(experiments, ", "))
		}
		want[name] = true
	}
	return want, nil
}

// usageError is a command line run refuses before doing any work; main
// exits 2 on it and 1 on every other error.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "gaussbench:", err)
	if errors.As(err, &usageError{}) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run parses the command line and prints the selected experiments to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gaussbench", flag.ContinueOnError)
	exps := fs.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments, ",")+",all")
	quick := fs.Bool("quick", false, "reduced data sizes (for smoke testing)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	want, err := parseExperiments(*exps)
	if err != nil {
		return usageError{err}
	}
	b := &bench{out: stdout, n: [2]int{10987, 100000}, nq: [2]int{100, 500}} // §6's sizes
	if *quick {
		b.n, b.nq = [2]int{3000, 10000}, [2]int{40, 60}
	}

	if want["fig1"] {
		b.figure1()
	}
	if want["headline"] { // reads all four panels, so it runs (and prints) those not asked for
		for set := range b.w {
			want[fig6Names[set]], want[fig7Names[set]] = true, true
		}
	}
	for set := range b.w {
		if want[fig6Names[set]] || want[fig7Names[set]] {
			if b.w[set], err = b.load(set); err != nil {
				return err
			}
		}
	}
	for set := range b.w {
		if want[fig6Names[set]] {
			if err := b.figure6(set); err != nil {
				return err
			}
		}
	}
	for set := range b.w {
		if want[fig7Names[set]] {
			if err := b.figure7(set); err != nil {
				return err
			}
		}
	}
	if want["headline"] {
		b.headline()
	}
	if want["ablations"] {
		return b.ablations()
	}
	return nil
}

// The panels of Figures 6 and 7, by the data set (1, 2) they run on.
var (
	fig6Names = [2]string{"fig6a", "fig6b"}
	fig7Names = [2]string{"fig7ds1", "fig7ds2"}
)

// world is one data set of §6 with its query workload and engines, and the
// reports computed on it, which headline reads.
type world struct {
	ds   *dataset.Dataset
	qs   []dataset.Query
	e    *eval.Engines
	fig6 *eval.Fig6Report
	fig7 *eval.Fig7Report
}

type bench struct {
	out   io.Writer
	n, nq [2]int    // objects and queries of data sets 1 and 2
	w     [2]*world // nil when no selected experiment needs the set
}

// generate draws data set 1 (index 0: 27-d color histograms) or 2 (index 1:
// 10-d synthetic) at n objects from the paper's parameters and seed, with a
// workload of nq queries.
func generate(set, n, nq int, querySeed int64) (*dataset.Dataset, []dataset.Query, error) {
	var (
		ds    *dataset.Dataset
		sigma dataset.SigmaModel
		seed  int64
		err   error
	)
	if set == 0 {
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
		return nil, nil, err
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: nq, Sigma: sigma, Seed: seed + querySeed})
	return ds, qs, err
}

// load generates one data set at the run's size and builds all four engines
// over it.
func (b *bench) load(set int) (*world, error) {
	ds, qs, err := generate(set, b.n[set], b.nq[set], 100)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "# data set %d: %d %s pfv, %d-d, %d queries\n", set+1, len(ds.Vectors), [2]string{"histogram", "synthetic"}[set], ds.Dim, len(qs))
	start := time.Now()
	e, err := eval.Build(ds, eval.Setup{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "# built gauss-tree(h=%d), x-tree(h=%d), scan file, va-file in %v\n\n",
		e.Tree.Height(), e.X.Height(), time.Since(start).Round(time.Millisecond))
	return &world{ds: ds, qs: qs, e: e}, nil
}

// figure1 reproduces the worked example of paper Figure 1 / §3.1.
func (b *bench) figure1() {
	fmt.Fprintln(b.out, "=== Figure 1 / §3.1 worked example ===")
	q := pfv.MustNew(0, []float64{0, 0}, []float64{0.0617, 0.9401})
	db := []pfv.Vector{
		pfv.MustNew(1, []float64{1.1503, 1.0088}, []float64{0.3579, 0.2864}),
		pfv.MustNew(2, []float64{1.8674, 0.6274}, []float64{0.8130, 1.8051}),
		pfv.MustNew(3, []float64{1.3597, 1.0857}, []float64{1.3154, 0.1790}),
	}
	ps := pfv.Posterior(gaussian.CombineAdditive, db, q)
	fmt.Fprintln(b.out, "object  euclidean-dist  P(v|q)   paper")
	paper := []string{"10%", "13%", "77%"}
	for i, v := range db {
		fmt.Fprintf(b.out, "O%d      %14.2f  %5.1f%%   %s\n", i+1, pfv.EuclideanDistance(q, v), 100*ps[i], paper[i])
	}
	fmt.Fprintln(b.out, "Euclidean NN picks O1; the Gaussian uncertainty model identifies O3.")
	fmt.Fprintln(b.out)
}

// table prints one computed report under its experiment's name.
func (b *bench) table(name string, rep interface{ Format() string }, err error) error {
	if err == nil {
		fmt.Fprintf(b.out, "=== %s ===\n%s\n", name, rep.Format())
	}
	return err
}

// figure6 computes and prints one effectiveness panel, keeping the report
// for headline; figure7 does so for a page-access panel.
func (b *bench) figure6(set int) (err error) {
	w := b.w[set]
	w.fig6, err = eval.Figure6(w.e, w.ds, w.qs, []int{1, 2, 3, 4, 5, 6, 7, 8, 9})
	return b.table(fig6Names[set], w.fig6, err)
}

func (b *bench) figure7(set int) (err error) {
	w := b.w[set]
	w.fig7, err = eval.Figure7(w.e, w.ds, w.qs)
	return b.table(fig7Names[set], w.fig7, err)
}

// headline prints the §6 headline numbers next to the paper's.
func (b *bench) headline() {
	fmt.Fprintln(b.out, "=== Headline numbers (paper §6 vs measured) ===")
	row := func(metric, paper string, measured float64, unit string) {
		fmt.Fprintf(b.out, "%-44s %10s %9.1f%s\n", metric, paper, measured, unit)
	}
	ds1, ds2 := b.w[0], b.w[1]
	fmt.Fprintf(b.out, "%-44s %10s %10s\n", "metric", "paper", "measured")
	row("DS1 3-MLIQ recall (x1)", "98%", 100*ds1.fig6.Rows[0].RecallMLIQ, "%")
	row("DS1 3-NN recall (x1)", "42%", 100*ds1.fig6.Rows[0].RecallNN, "%")
	row("DS2 3-MLIQ recall (x1)", "99%", 100*ds2.fig6.Rows[0].RecallMLIQ, "%")
	row("DS2 3-NN recall (x1)", "61%", 100*ds2.fig6.Rows[0].RecallNN, "%")
	row("DS1 G-tree page speedup, 1-MLIQ", "4.2x", ds1.fig7.SpeedupOver("Gauss-Tree", "1-MLIQ"), "x")
	row("DS1 G-tree page speedup, TIQ(0.8)", "4.2x", ds1.fig7.SpeedupOver("Gauss-Tree", "TIQ(P=0.8)"), "x")
	row("DS2 G-tree page speedup, 1-MLIQ", "4.3x", ds2.fig7.SpeedupOver("Gauss-Tree", "1-MLIQ"), "x")
	row("DS2 G-tree page speedup, TIQ(0.8)", "35.7-43.2x", ds2.fig7.SpeedupOver("Gauss-Tree", "TIQ(P=0.8)"), "x")
	row("DS2 G-tree page speedup, TIQ(0.2)", "35.7-43.2x", ds2.fig7.SpeedupOver("Gauss-Tree", "TIQ(P=0.2)"), "x")
	row("DS2 X-tree page speedup, 1-MLIQ", "~1x", ds2.fig7.SpeedupOver("X-Tree", "1-MLIQ"), "x")
	fmt.Fprintln(b.out)
}

// ablations prints the design-choice comparisons (eval.Ablations) on a DS2
// subset.
func (b *bench) ablations() error {
	ds, qs, err := generate(1, min(b.n[1], 20000), 100, 7)
	if err != nil {
		return err
	}
	rep, err := eval.Ablations(ds, qs, eval.Setup{})
	return b.table("Ablations A1 (σ-combination rule), A2 (split objective × build), A4 (engines)", rep, err)
}
