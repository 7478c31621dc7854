// Command gausscli loads probabilistic feature vectors into a Gauss-tree
// and answers identification queries from the command line.
//
// Usage:
//
//	gausscli -data faces.csv -kmliq "0.52,0.05,0.33,0.08" -k 5
//	gausscli -data faces.csv -tiq "0.52,0.05,0.33,0.08" -p 0.1
//
// With -index the tree is persisted: build it once from CSV, then answer
// queries from the durable index in later invocations without reloading the
// data —
//
//	gausscli -data faces.csv -index faces.gtree            # build once
//	gausscli -index faces.gtree -kmliq "0.52,0.05,..."     # query forever
//
// With -addr the queries are answered by a running gaussd daemon over its
// HTTP/JSON API instead of an in-process tree — the same output, served
// remotely:
//
//	gaussd -index faces.gtree -addr :8442 &
//	gausscli -addr localhost:8442 -kmliq "0.52,0.05,..."
//
// Query vectors are given as comma-separated mu,sigma pairs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/client"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// config is everything the command line decides.
type config struct {
	data, index, addr string
	kmliq, tiq        string
	k                 int
	p                 float64
}

// parseFlags parses and validates the command line before any data is
// loaded or any daemon contacted: an out-of-range -k or -p and a combination
// of flags that names no work are refused.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("gausscli", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.data, "data", "", "CSV of database pfv (required unless -index points at a built index or -addr at a daemon)")
	fs.StringVar(&c.index, "index", "", "persistent index file: built from -data when given, reopened otherwise")
	fs.StringVar(&c.addr, "addr", "", "gaussd address: answer queries remotely instead of in-process")
	fs.StringVar(&c.kmliq, "kmliq", "", "k-MLIQ query: mu_1,sigma_1,...")
	fs.StringVar(&c.tiq, "tiq", "", "TIQ query: mu_1,sigma_1,...")
	fs.IntVar(&c.k, "k", 3, "result count for -kmliq (must be >= 1)")
	fs.Float64Var(&c.p, "p", 0.1, "probability threshold for -tiq, in (0,1]")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	query, build := c.kmliq != "" || c.tiq != "", c.data != "" && c.index != ""
	switch {
	case c.k < 1:
		return config{}, errors.New("-k must be at least 1")
	case !(c.p > 0 && c.p <= 1): // NaN included
		return config{}, errors.New("-p must be in (0,1]")
	case c.addr != "" && (c.data != "" || c.index != ""):
		return config{}, errors.New("-addr queries a running daemon; it cannot be combined with -data or -index")
	case !query && !build, c.addr == "" && c.data == "" && c.index == "":
		fs.Usage()
		return config{}, errors.New("nothing to do: give -kmliq or -tiq against -data, -index or -addr, or -data with -index to build an index")
	}
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gausscli:", err)
		os.Exit(2)
	}
	if cfg.addr != "" {
		runRemote(cfg.addr, cfg.kmliq, cfg.tiq, cfg.k, cfg.p)
		return
	}

	var tree *gausstree.Tree
	switch {
	case cfg.data != "":
		vectors := readData(cfg.data)
		dim := vectors[0].Dim()
		if cfg.index != "" {
			tree, err = gausstree.New(dim, gausstree.Options{Path: cfg.index})
		} else {
			tree, err = gausstree.New(dim)
		}
		fail(err)
		fail(tree.BulkLoad(vectors))
		if cfg.index != "" {
			fmt.Printf("built %s: %d vectors (%d-d), tree height %d\n", cfg.index, tree.Len(), dim, tree.Height())
		} else {
			fmt.Printf("loaded %d vectors (%d-d), tree height %d\n", tree.Len(), dim, tree.Height())
		}
	default:
		tree, err = gausstree.Open(cfg.index)
		fail(err)
		fmt.Printf("opened %s: %d vectors (%d-d), tree height %d\n", cfg.index, tree.Len(), tree.Dim(), tree.Height())
	}
	defer tree.Close()
	dim := tree.Dim()

	if cfg.kmliq != "" {
		q := parseQuery(cfg.kmliq, dim)
		matches, err := tree.KMostLikely(q, cfg.k)
		fail(err)
		fmt.Printf("%d most likely objects:\n", cfg.k)
		printMatches(matches)
	}
	if cfg.tiq != "" {
		q := parseQuery(cfg.tiq, dim)
		matches, err := tree.Threshold(q, cfg.p)
		fail(err)
		fmt.Printf("objects with P(v|q) >= %v:\n", cfg.p)
		printMatches(matches)
	}
}

// runRemote answers the queries through the client package against a running
// gaussd, dogfooding the wire format end to end: the daemon's /v1/stats
// supplies the dimensionality the query parser needs.
func runRemote(addr, kmliq, tiq string, k int, p float64) {
	ctx := context.Background()
	cl, err := client.New(addr)
	fail(err)
	defer cl.Close()
	st, err := cl.Stats(ctx)
	fail(err)
	fmt.Printf("connected to %s: %s index, %d vectors (%d-d)\n", addr, st.Backend, st.Len, st.Dim)

	if kmliq != "" {
		matches, _, err := cl.KMLIQ(ctx, parseQuery(kmliq, st.Dim), k)
		fail(err)
		fmt.Printf("%d most likely objects:\n", k)
		printMatches(matches)
	}
	if tiq != "" {
		matches, _, err := cl.TIQ(ctx, parseQuery(tiq, st.Dim), p)
		fail(err)
		fmt.Printf("objects with P(v|q) >= %v:\n", p)
		printMatches(matches)
	}
}

func readData(path string) []pfv.Vector {
	f, err := os.Open(path)
	fail(err)
	vectors, err := pfv.ReadCSV(f)
	fail(f.Close())
	fail(err)
	if len(vectors) == 0 {
		fail(fmt.Errorf("no vectors in %s", path))
	}
	return vectors
}

func parseQuery(s string, dim int) gausstree.Vector {
	fields := strings.Split(s, ",")
	if len(fields) != 2*dim {
		fail(fmt.Errorf("query needs %d comma-separated values (mu,sigma pairs for %d dimensions), got %d",
			2*dim, dim, len(fields)))
	}
	mean := make([]float64, dim)
	sigma := make([]float64, dim)
	for i := 0; i < dim; i++ {
		var err error
		mean[i], err = strconv.ParseFloat(strings.TrimSpace(fields[2*i]), 64)
		fail(err)
		sigma[i], err = strconv.ParseFloat(strings.TrimSpace(fields[2*i+1]), 64)
		fail(err)
	}
	q, err := gausstree.NewVector(0, mean, sigma)
	fail(err)
	return q
}

func printMatches(ms []gausstree.Match) {
	if len(ms) == 0 {
		fmt.Println("  (none)")
		return
	}
	for i, m := range ms {
		fmt.Printf("  %2d. object %-8d P=%6.2f%%  (certified [%.2f%%, %.2f%%])\n",
			i+1, m.Vector.ID, 100*m.Probability, 100*m.ProbLow, 100*m.ProbHigh)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gausscli:", err)
		os.Exit(1)
	}
}
