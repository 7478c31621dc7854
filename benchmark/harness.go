package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// kK is the k of every k-MLIQ the benchmark issues (the paper's 3-MLIQ).
const kK = 3

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // measured window; whole passes are fitted into it
	trace   bool
	sz      sizes
	scratch string // directory for the files this run creates
	spans   string // where the traced run appends its spans
}

// runResult is what one run measured.
type runResult struct {
	workload  string
	tail      int    // samples required beyond a reported p99
	digest    string // of the generated inputs
	attempted int    // ops issued in the measured window plus answers checked
	failed    int    // ops that returned an error, were refused, or answered wrong
	firstErr  error  // first failure, for the report
	e2e       values // end-to-end metrics, issue names, untraced window only
	layer     values // per-layer ledger; filled only by a traced run
}

func (r *runResult) fail(n int, err error) {
	r.failed += n
	if r.firstErr == nil && err != nil {
		r.firstErr = err
	}
}

// begin generates the run's inputs and returns them with the empty result
// and the generation time, which is part of setup_s.
func begin(workload string, cfg runConfig, nFresh int) (*runResult, *inputs, float64, error) {
	t0 := time.Now()
	in, err := makeInputs(cfg.seed, cfg.sz, nFresh)
	if err != nil {
		return nil, nil, 0, err
	}
	genS := time.Since(t0).Seconds()
	return &runResult{workload: workload, tail: cfg.sz.tail, digest: in.digest(), e2e: values{}, layer: values{}}, in, genS, nil
}

// opFunc executes op i of a pass and returns the logical pages the program
// charged to it. sb is nil in the untraced run; in the traced run the op
// records its spans there.
type opFunc func(ctx context.Context, i int, sb *spanBuf) (pages uint64, err error)

// phase is one op type run as whole passes by one client; phases never
// interleave, so a median never sits on the boundary of a bimodal mix.
type phase struct {
	name  string
	ops   int // per pass
	reads int // read queries one op stands for (16 for a batch)
	do    opFunc
}

// pass is what one pass over the pool measured.
type pass struct {
	byOp   []float64 // µs per op, in op order
	lat    []float64 // the same, sorted ascending
	wall   float64   // s
	pages  uint64
	failed int
	err    error
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// runPass runs every op of p once as a closed loop: the client issues its
// next op when the previous one returned. lat is the preallocated latency
// slice; nothing allocates inside the timed loop.
func runPass(ctx context.Context, p phase, lat []float64, sb *spanBuf) pass {
	out := pass{byOp: lat[:p.ops]}
	start := time.Now()
	for i := range out.byOp {
		t0 := time.Now()
		pages, err := p.do(ctx, i, sb)
		out.byOp[i] = float64(time.Since(t0)) / 1e3
		out.pages += pages
		if err != nil {
			out.failed++
			if out.err == nil {
				out.err = fmt.Errorf("%s op %d: %w", p.name, i, err)
			}
		}
	}
	out.wall = time.Since(start).Seconds()
	out.lat = sorted(out.byOp)
	return out
}

// window runs rounds of one whole pass per phase, as many as make the
// window last about seconds, and at least two. Giving every phase the same
// pass count keeps the op mix independent of how many passes fit, and taking
// the phases in turn spreads each phase's passes over the whole window, so a
// disturbance of a few seconds cannot cover all of them. The first round
// fills the caches and its wall time sizes the window; it is measured like
// the others, because the read workloads report every op at its quietest
// (quietOps) and a first touch is only ever slower.
func window(ctx context.Context, phases []phase, seconds float64) [][]pass {
	out := make([][]pass, len(phases))
	rounds := 2
	for r := 0; r < rounds; r++ {
		for pi, p := range phases {
			out[pi] = append(out[pi], runPass(ctx, p, make([]float64, p.ops), nil))
		}
		if r == 0 {
			first := 0.0
			for pi := range phases {
				first += out[pi][0].wall
			}
			rounds = max(rounds, int(math.Round(seconds/first)))
			runtime.GC() // go on from a collected heap, outside the timed passes
		}
	}
	return out
}

// An estimator reduces the passes of one phase to the values a run reports.
type estimator int

const (
	// quietest: the passes repeat one measurement on an index that does not
	// change, and a disturbance of the host only ever adds time, so every op
	// is taken at the lowest latency any pass measured for it (quietOps) and
	// the statistics are those of that one composite pass. A disturbance has
	// to hit the same op in every pass to show.
	quietest estimator = iota
	// middle: the index changes under the passes (mixed-rw-file), so they
	// are not repeats of one another; each statistic is taken per pass and
	// the median pass stands for the window.
	middle
)

// quietOps returns, for every op of a pass, the lowest value any of the
// passes measured for it. The passes hold the same ops in the same order; a
// pass that failed part-way is shorter and counts for the ops it has.
func quietOps(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	q := append([]float64(nil), passes[0]...)
	for _, ps := range passes[1:] {
		for i := range min(len(q), len(ps)) {
			q[i] = min(q[i], ps[i])
		}
	}
	return q
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// folded is the passes of one phase reduced to its reported statistics. p99
// is reported only where a pass holds at least 1000 samples (ten beyond the
// percentile). busy is the time in seconds one pass keeps its client busy:
// the sum of the composite pass's latencies (quietest) or the median pass
// wall (middle).
type folded struct {
	p50, p99 float64
	hasP99   bool
	busy     float64
	samples  int
	pages    uint64
	failed   int
	err      error
}

func fold(passes []pass, tail int, e estimator) folded {
	var f folded
	var byOp [][]float64
	var p50s, p99s, walls []float64
	for _, ps := range passes {
		byOp = append(byOp, ps.byOp)
		v, _ := percentile(ps.lat, 0.50)
		p50s = append(p50s, v)
		if v, beyond := percentile(ps.lat, 0.99); beyond >= tail {
			p99s = append(p99s, v)
		}
		walls = append(walls, ps.wall)
		f.samples += len(ps.lat)
		f.pages += ps.pages
		f.failed += ps.failed
		if f.err == nil {
			f.err = ps.err
		}
	}
	if len(passes) == 0 {
		return f
	}
	if e == middle {
		f.p50, f.busy = median(p50s), median(walls)
		if len(p99s) == len(passes) {
			f.p99, f.hasP99 = median(p99s), true
		}
		return f
	}
	q := quietOps(byOp)
	f.busy = sum(q) / 1e6
	sort.Float64s(q)
	f.p50, _ = percentile(q, 0.50)
	if v, beyond := percentile(q, 0.99); beyond >= tail {
		f.p99, f.hasP99 = v, true
	}
	return f
}

// setups is how many times a run sets up; setup_s is their median, so one
// disturbed set-up cannot move it.
const setups = 3

// medianSetup runs setup setups times, tearing down after all but the last,
// and returns the median duration in seconds. The state of the last set-up
// stays alive for the measurement.
func medianSetup(setup func() error, teardown func() error) (float64, error) {
	var secs []float64
	for r := 0; r < setups; r++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", r+1, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if r < setups-1 {
			if err := teardown(); err != nil {
				return 0, fmt.Errorf("tear-down %d: %w", r+1, err)
			}
		}
	}
	return median(secs), nil
}

// heapMB forces a collection and returns the live heap. It collects twice
// because a sync.Pool's contents survive one cycle in its victim cache.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// mallocs returns the heap allocation count and bytes of f, which must run
// while nothing else in the process allocates.
func mallocs(f func()) (count, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// copyIndex copies an index file and, when present, its write-ahead log.
func copyIndex(dst, src string) error {
	if err := copyFile(dst, src); err != nil {
		return err
	}
	if _, err := os.Stat(src + ".wal"); err == nil {
		return copyFile(dst+".wal", src+".wal")
	}
	return nil
}

func removeIndex(path string) {
	os.Remove(path)
	os.Remove(path + ".wal")
}

// prime runs one unmeasured pass of every phase, where a workload needs one
// outside its window: mixed-rw-file's reader before the writer starts, and
// the traced served run's new connections.
func prime(ctx context.Context, phases []phase) ([]pass, error) {
	out := make([]pass, len(phases))
	for i, p := range phases {
		out[i] = runPass(ctx, p, make([]float64, p.ops), nil)
		if out[i].err != nil {
			return nil, fmt.Errorf("priming pass: %w", out[i].err)
		}
	}
	return out, nil
}

// readMetrics folds the measured passes of the read phases into the
// end-to-end read metrics. The phase named "kmliq" feeds kmliq_* and
// pages_per_query, "tiq" feeds tiq_*, "batch16" feeds batch16_p50_us;
// queries_per_s is the read queries of one round over the time its passes
// keep the client busy.
func readMetrics(res *runResult, phases []phase, passes [][]pass, e estimator) {
	reads, busy, total := 0, 0.0, 0
	for pi, p := range phases {
		f := fold(passes[pi], res.tail, e)
		reads += p.ops * p.reads
		busy += f.busy
		total += f.samples
		res.attempted += f.samples
		res.fail(f.failed, f.err)
		switch p.name {
		case "kmliq":
			res.e2e.set("kmliq_p50_us", f.p50, f.samples)
			if f.hasP99 {
				res.e2e.set("kmliq_p99_us", f.p99, f.samples)
			}
			res.e2e.set("pages_per_query", float64(f.pages)/float64(f.samples*p.reads), f.samples)
		case "tiq":
			res.e2e.set("tiq_p50_us", f.p50, f.samples)
			if f.hasP99 {
				res.e2e.set("tiq_p99_us", f.p99, f.samples)
			}
		case "batch16":
			res.e2e.set("batch16_p50_us", f.p50, f.samples)
		}
	}
	res.e2e.set("queries_per_s", float64(reads)/busy, total)
}

// finish derives error_rate once every op and every checked answer has
// been counted.
func (r *runResult) finish() {
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	r.e2e.set("error_rate", rate, r.attempted)
}

// check verifies the warm-up answers against the scan oracle and counts
// them as attempted ops; a wrong answer is a failed op.
func (r *runResult) check(in *inputs, kmliq, tiq []answer) {
	o := &oracle{db: in.vectors}
	checked, wrong, err := o.verify(kmliq, tiq, runtime.GOMAXPROCS(0))
	r.attempted += checked
	r.fail(wrong, err)
}

// tracedPasses runs one pass of every phase with span recording on.
func tracedPasses(ctx context.Context, rec *recorder, phases []phase) []pass {
	out := make([]pass, len(phases))
	for i, p := range phases {
		out[i] = runPass(ctx, p, make([]float64, p.ops), rec.buf(p.ops+1))
	}
	return out
}
