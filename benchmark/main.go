// Command benchmark is the repository's benchmark of record: four workloads
// over the paper's data set 2, named end-to-end metrics with bounds, and an
// outside-in per-layer ledger for client -> gaussd -> shard -> core ->
// pagefile -> wal. See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1              # every workload, every metric
//	go run ./benchmark -workload cold-reopen -seed 7      # one workload, another seed
//	go run ./benchmark -workload all -seed 1 -trace 1     # traced run: the per-layer ledger
//	go run ./benchmark -compare a.json b.json             # judge b (a change) against a (its parent)
//	go run ./benchmark -agree a.json b.json               # do two sets of one commit agree?
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// runners maps a workload name to its implementation.
var runners = map[string]func(context.Context, runConfig) (*runResult, error){
	wWarm:   runWarm,
	wCold:   runCold,
	wServed: runServed,
	wMixed:  runMixed,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(allWorkloads, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed: the query pool and the inserted vectors are generated from it (the stored set is fixed)")
	seconds := fs.Float64("seconds", 30, "length of the measured window per workload")
	trace := fs.Int("trace", 0, "1 = traced run: adds the benchmark-side spans and the per-layer ledger")
	repeats := fs.Int("repeats", 1, "runs per workload; run r of every workload uses seed+r and finishes before run r+1 of any starts")
	smoke := fs.Bool("smoke", false, "tiny data (N = 2000, one pass) for tests")
	out := fs.String("out", "", "write the result file (JSON) here")
	scratch := fs.String("scratch", filepath.Join("benchmark", "out"), "directory for index files and spans.jsonl")
	compare := fs.Bool("compare", false, "judge b, a change, against a, its parent: -compare a.json b.json")
	agree := fs.Bool("agree", false, "judge whether two sets of one commit agree, in both directions: -agree a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare || *agree {
		if fs.NArg() != 2 || *compare == *agree {
			return errors.New("-compare and -agree each need two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1), *agree)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	names := allWorkloads
	if *workload != "all" {
		if runners[*workload] == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		names = []string{*workload}
	}
	if *seconds <= 0 || *repeats < 1 {
		return errors.New("-seconds and -repeats must be positive")
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		seconds: *seconds,
		trace:   *trace != 0,
		sz:      fullSizes,
		scratch: dir,
		spans:   filepath.Join(*scratch, "spans.jsonl"),
	}
	if *smoke {
		cfg.sz = smokeSizes
	}
	if cfg.trace {
		os.Remove(cfg.spans)
	}

	rf := resultFile{Schema: schemaName, Env: captureEnv()}
	rf.Env.Seed, rf.Env.Repeats, rf.Env.Seconds, rf.Env.Traced, rf.Env.Smoke = *seed, *repeats, *seconds, cfg.trace, *smoke
	ctx := context.Background()
	// Repeats are the outer loop: a disturbance of the host that lasts
	// minutes then lands on a few repeats of every workload, which a median
	// over repeats shrugs off, instead of on every repeat of one workload.
	runs := map[string][]*runResult{}
	failed := 0
	for r := 0; r < *repeats; r++ {
		cfg.seed = *seed + int64(r)
		for _, name := range names {
			res, err := runners[name](ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, cfg.seed, err)
			}
			runs[name] = append(runs[name], res)
			failed += res.failed
		}
	}
	var lines []string
	for _, name := range names {
		wr := aggregate(name, runs[name])
		printWorkload(stdout, wr)
		rf.Workloads = append(rf.Workloads, wr)
		line, err := driverLine(runs[name][*repeats-1], cfg.trace)
		if err != nil {
			return err
		}
		lines = append(lines, line)
	}
	if cfg.trace && len(names) > 1 {
		// The paper pin is workload-independent and slow: once per ledger,
		// as a section of its own.
		pin := &runResult{workload: "fig7", layer: values{}}
		if err := fig7(ctx, cfg.sz, *seed, pin.layer); err != nil {
			return fmt.Errorf("fig7: %w", err)
		}
		wr := aggregate(pin.workload, []*runResult{pin})
		printWorkload(stdout, wr)
		rf.Workloads = append(rf.Workloads, wr)
	}
	if *out != "" {
		if err := writeResultFile(*out, rf); err != nil {
			return err
		}
	}
	if cfg.trace {
		fmt.Fprintf(stdout, "\nspans written to %s\n", cfg.spans)
	}
	// The last line of standard output is the result object of the (last)
	// workload, as the driver reads it.
	fmt.Fprintln(stdout)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if failed > 0 {
		// The result line above says correct=false; that, not the exit
		// code, is how a reader of the output learns of it.
		fmt.Fprintf(os.Stderr, "benchmark: %d operations failed or answered wrong\n", failed)
	}
	return nil
}
