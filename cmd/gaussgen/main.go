// Command gaussgen writes the paper's evaluation data sets (or custom-sized
// variants) to CSV files in the interchange format of the pfv package
// (id,mu_1,sigma_1,...), together with a matching query workload whose first
// column is the ground-truth object id.
//
// Usage:
//
//	gaussgen -set ds1 -out ds1.csv -queries ds1-queries.csv
//	gaussgen -set ds2 -n 50000 -out ds2.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// config is everything the command line decides.
type config struct {
	set          string
	n, nq        int // 0: the paper's
	out, queries string
	seed         int64 // 0: the data set's default
}

// parseFlags parses and validates the command line before any work is done:
// an out-of-range value or an unknown data set is refused, not replaced by a
// default.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("gaussgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.set, "set", "ds2", "data set: ds1 (27-d histograms) or ds2 (10-d synthetic)")
	fs.IntVar(&c.n, "n", 0, "number of objects (0 = paper default)")
	fs.StringVar(&c.out, "out", "", "output CSV path (required)")
	fs.StringVar(&c.queries, "queries", "", "optional query workload CSV path")
	fs.IntVar(&c.nq, "nq", 0, "number of queries (0 = paper default)")
	fs.Int64Var(&c.seed, "seed", 0, "seed override (0 = default)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	switch {
	case c.out == "":
		return config{}, errors.New("-out is required")
	case c.set != "ds1" && c.set != "ds2":
		return config{}, fmt.Errorf("unknown -set %q (valid: ds1, ds2)", c.set)
	case c.n < 0:
		return config{}, errors.New("-n must not be negative (0 = paper default)")
	case c.nq < 0:
		return config{}, errors.New("-nq must not be negative (0 = paper default)")
	}
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gaussgen:", err)
		os.Exit(2)
	}

	var ds *dataset.Dataset
	var qsigma dataset.SigmaModel
	count := cfg.nq
	if cfg.set == "ds1" {
		p := dataset.DefaultHistogramParams()
		if cfg.n > 0 {
			p.N = cfg.n
		}
		if cfg.seed != 0 {
			p.Seed = cfg.seed
		}
		ds, err = dataset.ColorHistograms(p)
		qsigma = p.Sigma
		if count == 0 {
			count = 100
		}
	} else {
		p := dataset.DefaultSyntheticParams()
		if cfg.n > 0 {
			p.N = cfg.n
		}
		if cfg.seed != 0 {
			p.Seed = cfg.seed
		}
		ds, err = dataset.Synthetic(p)
		qsigma = p.Sigma
		if count == 0 {
			count = 500
		}
	}
	fail(err)

	f, err := os.Create(cfg.out)
	fail(err)
	fail(pfv.WriteCSV(f, ds.Vectors))
	fail(f.Close())
	fmt.Printf("wrote %d vectors (%d-d) to %s\n", len(ds.Vectors), ds.Dim, cfg.out)

	if cfg.queries == "" {
		return
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: count, Sigma: qsigma, Seed: 4242})
	fail(err)
	qf, err := os.Create(cfg.queries)
	fail(err)
	truth := make([]pfv.Vector, len(qs)) // the query vectors, identified by their ground truth
	for i, q := range qs {
		truth[i] = q.Vector
		truth[i].ID = q.TruthID
	}
	fmt.Fprintln(qf, "# truth_id,mu_1,sigma_1,...")
	fail(pfv.WriteCSV(qf, truth))
	fail(qf.Close())
	fmt.Printf("wrote %d queries to %s\n", count, cfg.queries)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gaussgen:", err)
		os.Exit(1)
	}
}
