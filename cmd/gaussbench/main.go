// Command gaussbench regenerates every table and figure of the paper's
// evaluation (§6) plus this repository's ablations, as aligned text tables.
// All engines are driven through the uniform query.Engine interface, so
// adding a backend to eval.Build automatically adds it to every comparison
// here.
//
// Usage:
//
//	gaussbench -exp all                 # everything (several minutes)
//	gaussbench -exp fig6a,fig7ds2       # selected experiments
//	gaussbench -exp headline -quick     # reduced data sizes for smoke runs
//
// Experiments: fig1, fig6a, fig6b, fig7ds1, fig7ds2, headline, ablations,
// ingest, chaos; an unknown name exits 2. Throughput, latency, reopen and
// shard-scaling numbers are the business of the benchmark of record
// (./benchmark).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/client"
	"github.com/gauss-tree/gausstree/internal/dataset"
	"github.com/gauss-tree/gausstree/internal/eval"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/server"
)

// experiments are the names -exp accepts, besides "all".
var experiments = []string{"fig1", "fig6a", "fig6b", "fig7ds1", "fig7ds2", "headline", "ablations", "ingest", "chaos"}

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

func main() {
	var (
		exps   = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments, ",")+",all")
		quick  = flag.Bool("quick", false, "reduced data sizes (for smoke testing)")
		n1     = flag.Int("n1", 10987, "data set 1 size (paper: 10987)")
		n2     = flag.Int("n2", 100000, "data set 2 size (paper: 100000)")
		q1     = flag.Int("q1", 100, "data set 1 query count (paper: 100)")
		q2     = flag.Int("q2", 500, "data set 2 query count (paper: 500)")
		pageSz = flag.Int("pagesize", pagefile.DefaultPageSize, "page size in bytes")
		seed1  = flag.Int64("seed1", 1, "data set 1 seed")
		seed2  = flag.Int64("seed2", 2, "data set 2 seed")
	)
	flag.Parse()
	run, err := parseExperiments(*exps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gaussbench:", err)
		os.Exit(2)
	}
	if *quick {
		*n1, *n2, *q1, *q2 = 3000, 10000, 40, 60
	}

	b := &bench{
		n1: *n1, n2: *n2, q1: *q1, q2: *q2,
		pageSize: *pageSz, seed1: *seed1, seed2: *seed2,
	}

	if run["fig1"] {
		b.figure1()
	}
	if run["fig6a"] || run["fig7ds1"] || run["headline"] {
		b.loadDS1()
	}
	if run["fig6b"] || run["fig7ds2"] || run["headline"] {
		b.loadDS2()
	}
	if run["fig6a"] {
		b.figure6(b.e1, b.ds1, b.qs1, "fig6a")
	}
	if run["fig6b"] {
		b.figure6(b.e2, b.ds2, b.qs2, "fig6b")
	}
	if run["fig7ds1"] {
		b.figure7(b.e1, b.ds1, b.qs1, "fig7ds1")
	}
	if run["fig7ds2"] {
		b.figure7(b.e2, b.ds2, b.qs2, "fig7ds2")
	}
	if run["headline"] {
		b.headline()
	}
	if run["ablations"] {
		b.ablations()
	}
	if run["ingest"] {
		b.ingest()
	}
	if run["chaos"] {
		b.chaosExp()
	}
}

type bench struct {
	n1, n2, q1, q2   int
	pageSize         int
	seed1, seed2     int64
	ds1, ds2         *dataset.Dataset
	qs1, qs2         []dataset.Query
	e1, e2           *eval.Engines
	fig6a, fig6b     *eval.Fig6Report
	fig7ds1, fig7ds2 *eval.Fig7Report
}

func (b *bench) loadDS1() {
	if b.ds1 != nil {
		return
	}
	p := dataset.DefaultHistogramParams()
	p.N = b.n1
	p.Seed = b.seed1
	ds, err := dataset.ColorHistograms(p)
	check(err)
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: b.q1, Sigma: p.Sigma, Seed: b.seed1 + 100})
	check(err)
	fmt.Printf("# data set 1: %d histogram pfv, %d-d, %d queries\n", len(ds.Vectors), ds.Dim, len(qs))
	start := time.Now()
	e, err := eval.Build(ds, eval.Setup{PageSize: b.pageSize})
	check(err)
	fmt.Printf("# built gauss-tree(h=%d), x-tree(h=%d), scan file, va-file in %v\n\n",
		e.Tree.Height(), e.X.Height(), time.Since(start).Round(time.Millisecond))
	b.ds1, b.qs1, b.e1 = ds, qs, e
}

func (b *bench) loadDS2() {
	if b.ds2 != nil {
		return
	}
	p := dataset.DefaultSyntheticParams()
	p.N = b.n2
	p.Seed = b.seed2
	ds, err := dataset.Synthetic(p)
	check(err)
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: b.q2, Sigma: p.Sigma, Seed: b.seed2 + 100})
	check(err)
	fmt.Printf("# data set 2: %d synthetic pfv, %d-d, %d queries\n", len(ds.Vectors), ds.Dim, len(qs))
	start := time.Now()
	e, err := eval.Build(ds, eval.Setup{PageSize: b.pageSize})
	check(err)
	fmt.Printf("# built gauss-tree(h=%d), x-tree(h=%d), scan file, va-file in %v\n\n",
		e.Tree.Height(), e.X.Height(), time.Since(start).Round(time.Millisecond))
	b.ds2, b.qs2, b.e2 = ds, qs, e
}

// figure1 reproduces the worked example of paper Figure 1 / §3.1.
func (b *bench) figure1() {
	fmt.Println("=== Figure 1 / §3.1 worked example ===")
	q := pfv.MustNew(0, []float64{0, 0}, []float64{0.0617, 0.9401})
	db := []pfv.Vector{
		pfv.MustNew(1, []float64{1.1503, 1.0088}, []float64{0.3579, 0.2864}),
		pfv.MustNew(2, []float64{1.8674, 0.6274}, []float64{0.8130, 1.8051}),
		pfv.MustNew(3, []float64{1.3597, 1.0857}, []float64{1.3154, 0.1790}),
	}
	ps := pfv.Posterior(gaussian.CombineAdditive, db, q)
	fmt.Println("object  euclidean-dist  P(v|q)   paper")
	paper := []string{"10%", "13%", "77%"}
	for i, v := range db {
		fmt.Printf("O%d      %14.2f  %5.1f%%   %s\n", i+1, pfv.EuclideanDistance(q, v), 100*ps[i], paper[i])
	}
	fmt.Println("Euclidean NN picks O1; the Gaussian uncertainty model identifies O3.")
	fmt.Println()
}

func (b *bench) figure6(e *eval.Engines, ds *dataset.Dataset, qs []dataset.Query, name string) {
	fmt.Printf("=== %s ===\n", name)
	rep, err := eval.Figure6(e, ds, qs, []int{1, 2, 3, 4, 5, 6, 7, 8, 9})
	check(err)
	fmt.Print(rep.Format())
	fmt.Println()
	if name == "fig6a" {
		b.fig6a = rep
	} else {
		b.fig6b = rep
	}
}

func (b *bench) figure7(e *eval.Engines, ds *dataset.Dataset, qs []dataset.Query, name string) {
	fmt.Printf("=== %s ===\n", name)
	rep, err := eval.Figure7(e, ds, qs)
	check(err)
	fmt.Print(rep.Format())
	fmt.Println()
	if name == "fig7ds1" {
		b.fig7ds1 = rep
	} else {
		b.fig7ds2 = rep
	}
}

// headline prints the §6 headline numbers next to the paper's.
func (b *bench) headline() {
	fmt.Println("=== Headline numbers (paper §6 vs measured) ===")
	if b.fig6a == nil {
		b.figure6(b.e1, b.ds1, b.qs1, "fig6a")
	}
	if b.fig6b == nil {
		b.figure6(b.e2, b.ds2, b.qs2, "fig6b")
	}
	if b.fig7ds1 == nil {
		b.figure7(b.e1, b.ds1, b.qs1, "fig7ds1")
	}
	if b.fig7ds2 == nil {
		b.figure7(b.e2, b.ds2, b.qs2, "fig7ds2")
	}
	row := func(metric, paper string, measured float64, unit string) {
		fmt.Printf("%-44s %10s %9.1f%s\n", metric, paper, measured, unit)
	}
	fmt.Printf("%-44s %10s %10s\n", "metric", "paper", "measured")
	row("DS1 3-MLIQ recall (x1)", "98%", 100*b.fig6a.Rows[0].RecallMLIQ, "%")
	row("DS1 3-NN recall (x1)", "42%", 100*b.fig6a.Rows[0].RecallNN, "%")
	row("DS2 3-MLIQ recall (x1)", "99%", 100*b.fig6b.Rows[0].RecallMLIQ, "%")
	row("DS2 3-NN recall (x1)", "61%", 100*b.fig6b.Rows[0].RecallNN, "%")
	row("DS1 G-tree page speedup, 1-MLIQ", "4.2x", b.fig7ds1.SpeedupOver("Gauss-Tree", "1-MLIQ"), "x")
	row("DS1 G-tree page speedup, TIQ(0.8)", "4.2x", b.fig7ds1.SpeedupOver("Gauss-Tree", "TIQ(P=0.8)"), "x")
	row("DS2 G-tree page speedup, 1-MLIQ", "4.3x", b.fig7ds2.SpeedupOver("Gauss-Tree", "1-MLIQ"), "x")
	row("DS2 G-tree page speedup, TIQ(0.8)", "35.7-43.2x", b.fig7ds2.SpeedupOver("Gauss-Tree", "TIQ(P=0.8)"), "x")
	row("DS2 G-tree page speedup, TIQ(0.2)", "35.7-43.2x", b.fig7ds2.SpeedupOver("Gauss-Tree", "TIQ(P=0.2)"), "x")
	row("DS2 X-tree page speedup, 1-MLIQ", "~1x", b.fig7ds2.SpeedupOver("X-Tree", "1-MLIQ"), "x")
	fmt.Println()
}

// ablations prints the design-choice comparisons (eval.Ablations) on a DS2
// subset.
func (b *bench) ablations() {
	fmt.Println("=== Ablations A1 (σ-combination rule), A2 (split objective × build), A4 (engines) ===")
	ds, qs := b.subset(min(b.n2, 20000), 100)
	rep, err := eval.Ablations(ds, qs, eval.Setup{PageSize: b.pageSize})
	check(err)
	fmt.Print(rep.Format())
	fmt.Println()
}

func (b *bench) subset(n, nq int) (*dataset.Dataset, []dataset.Query) {
	p := dataset.DefaultSyntheticParams()
	p.N = n
	p.Seed = b.seed2
	ds, err := dataset.Synthetic(p)
	check(err)
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: nq, Sigma: p.Sigma, Seed: b.seed2 + 7})
	check(err)
	return ds, qs
}

// chaosExp drives the self-healing serving stack through a deterministic
// fault storm and reports what fault tolerance costs and delivers. Phase one
// quantifies the standing tax: the hot k-MLIQ path on the same file-backed
// index with and without a (disarmed) fault injector wrapping its backend —
// the production configuration of a chaos-capable gaussd. Phase two arms
// bounded fault schedules one at a time against a loopback daemon running
// the recovery supervisor and the background scrubber while query and insert
// workers hammer it, measuring heal latency (disarm -> /readyz healthy) per
// round. The run ends with a cold reopen proving that every acknowledged
// insert survived the storm: AckedLost must print 0.
func (b *bench) chaosExp() {
	ds, qs := b.subset(min(b.n2, 10000), 100)
	fmt.Println("=== Chaos: fault storm against a self-healing loopback gaussd ===")

	dir, err := os.MkdirTemp("", "gaussbench-chaos-*")
	check(err)
	defer os.RemoveAll(dir)

	// Phase one: the disarmed fault layer's overhead on the hot read path.
	// Both variants are warmed file-backed indexes over the same data; the
	// rounds alternate between them and the best round counts, so scheduler
	// and GC noise cannot masquerade as fault-layer cost.
	build := func(path string, inj *gausstree.FaultInjector) *gausstree.Tree {
		tr, err := gausstree.New(ds.Dim, gausstree.Options{Path: path, PageSize: b.pageSize, Fault: inj})
		check(err)
		check(tr.BulkLoad(ds.Vectors))
		for _, q := range qs { // warm both cache layers
			_, _, err := tr.KMLIQContext(context.Background(), q.Vector, 3)
			check(err)
		}
		return tr
	}
	plain := build(dir+"/plain.gtree", nil)
	wrapped := build(dir+"/wrapped.gtree", gausstree.NewFaultInjector())
	hotNs := func(tr *gausstree.Tree) float64 {
		ctx := context.Background()
		const passes = 3
		start := time.Now()
		for p := 0; p < passes; p++ {
			for _, q := range qs {
				_, _, err := tr.KMLIQContext(ctx, q.Vector, 3)
				check(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(passes*len(qs))
	}
	baseNs, disarmedNs := math.Inf(1), math.Inf(1)
	for round := 0; round < 5; round++ {
		runtime.GC()
		baseNs = math.Min(baseNs, hotNs(plain))
		disarmedNs = math.Min(disarmedNs, hotNs(wrapped))
	}
	check(plain.Close())
	check(wrapped.Close())
	disarmedOverheadPct := (disarmedNs - baseNs) / baseNs * 100

	// Phase two: the storm. A file-backed daemon with supervisor + scrubber.
	path := dir + "/storm.gtree"
	inj := gausstree.NewFaultInjector()
	opts := gausstree.Options{Path: path, PageSize: b.pageSize, Fault: inj, CommitLatency: 200 * time.Microsecond}
	tr, err := gausstree.New(ds.Dim, opts)
	check(err)
	check(tr.BulkLoad(ds.Vectors))
	srv := server.New(server.TreeIndex(tr), server.Config{
		RecoveryBase:  2 * time.Millisecond,
		RecoveryMax:   50 * time.Millisecond,
		ScrubInterval: 25 * time.Millisecond,
		ScrubRate:     -1,
		Reopen: func() (server.Index, error) {
			t2, err := gausstree.Open(path, opts)
			if err != nil {
				return nil, err
			}
			return server.TreeIndex(t2), nil
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go srv.Serve(l)
	cl, err := client.New(l.Addr().String(), client.Options{RetryBase: 2 * time.Millisecond, MaxRetries: 8, RetryBudget: -1})
	check(err)
	defer cl.Close()
	// The insert worker never retries: a degraded rejection is counted and
	// the next insert follows immediately, keeping write pressure on the
	// daemon through every fault window instead of sleeping out Retry-After.
	mcl, err := client.New(l.Addr().String(), client.Options{MaxRetries: -1})
	check(err)
	defer mcl.Close()
	ctx := context.Background()

	var (
		stop      = make(chan struct{})
		wg        sync.WaitGroup
		qOK, qRej atomic.Int64
		ackedMu   sync.Mutex
		acked     []uint64
		insRej    atomic.Int64
	)
	for w := 0; w < 2; w++ { // query workers
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[rng.Intn(len(qs))]
				if _, _, err := cl.KMLIQ(ctx, q.Vector, 3); err != nil {
					qRej.Add(1)
				} else {
					qOK.Add(1)
				}
			}
		}(int64(1 + w))
	}
	wg.Add(1)
	go func() { // insert worker: acknowledged means durable forever
		defer wg.Done()
		fresh := freshVectors(ds, 4096, 99)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := fresh[i%len(fresh)]
			v.ID = uint64(2_000_000 + i)
			id := v.ID
			n, err := mcl.Insert(ctx, []gausstree.Vector{v})
			if n == 1 {
				ackedMu.Lock()
				acked = append(acked, id)
				ackedMu.Unlock()
			}
			if err != nil {
				insRej.Add(1)
			}
		}
	}()

	schedules := []gausstree.FaultSchedule{
		{Seed: 201, Ops: map[gausstree.FaultOp]gausstree.FaultRule{gausstree.FaultOpWALWrite: {Prob: 0.5, MaxFaults: 2}}},
		{Seed: 202, Ops: map[gausstree.FaultOp]gausstree.FaultRule{gausstree.FaultOpPageWrite: {Prob: 0.5, MaxFaults: 1, Torn: true}}},
		{Seed: 203, Ops: map[gausstree.FaultOp]gausstree.FaultRule{gausstree.FaultOpWALSync: {Prob: 0.5, MaxFaults: 2}}},
		{Seed: 204, Ops: map[gausstree.FaultOp]gausstree.FaultRule{gausstree.FaultOpMetaWrite: {Prob: 0.5, MaxFaults: 1}}},
		{Seed: 205, Ops: map[gausstree.FaultOp]gausstree.FaultRule{
			gausstree.FaultOpWALWrite:  {Prob: 0.3, MaxFaults: 1},
			gausstree.FaultOpPageWrite: {Prob: 0.3, MaxFaults: 1, Torn: true},
		}},
	}
	// A readiness monitor observes every degraded window: it polls /readyz
	// continuously and records how long each unhealthy stretch lasted —
	// the client-visible heal latency, including windows that open and close
	// while a schedule is still armed.
	var (
		monStop        = make(chan struct{})
		monDone        = make(chan struct{})
		degradations   int // healthy -> degraded -> healthy windows observed
		healTotal      time.Duration
		healMax        time.Duration
		faultsInjected uint64 // I/O faults the injector actually fired
	)
	go func() {
		defer close(monDone)
		var downSince time.Time
		for {
			select {
			case <-monStop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if cl.Ready(ctx) != nil {
				if downSince.IsZero() {
					downSince = time.Now()
				}
				continue
			}
			if !downSince.IsZero() {
				degradations++
				window := time.Since(downSince)
				healTotal += window
				if window > healMax {
					healMax = window
				}
				downSince = time.Time{}
			}
		}
	}()

	for _, sched := range schedules {
		check(inj.Arm(sched))
		time.Sleep(60 * time.Millisecond)
		for _, n := range inj.Status().Injected { // counters reset on Arm
			faultsInjected += n
		}
		inj.Disarm()
		for cl.Ready(ctx) != nil { // settle before the next round
			time.Sleep(2 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	close(monStop)
	<-monDone
	var meanHealMillis float64 // disarm -> readyz-healthy, mean over windows
	if degradations > 0 {
		meanHealMillis = float64(healTotal.Microseconds()) / 1e3 / float64(degradations)
	}
	var scrubRuns, scrubPages uint64
	if st, err := cl.Stats(ctx); err == nil && st.Scrub != nil {
		scrubRuns, scrubPages = st.Scrub.Runs, st.Scrub.Pages
	}

	// Cold reopen: every acknowledged insert must have survived the storm.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	check(srv.Shutdown(sctx))
	re, err := gausstree.Open(path)
	check(err)
	defer re.Close()
	ids := make(map[uint64]bool, len(acked))
	check(re.ForEach(func(v gausstree.Vector) error {
		ids[v.ID] = true
		return nil
	}))
	ackedLost := 0 // acknowledged inserts missing after the cold reopen; must be 0
	for _, id := range acked {
		if !ids[id] {
			ackedLost++
		}
	}

	fmt.Printf("disarmed fault-layer overhead on hot k-MLIQ: %+.1f%% (budget <=2%%)\n", disarmedOverheadPct)
	fmt.Printf("%-10s %8s %8s %10s %10s %9s %9s %8s %8s %6s\n",
		"rounds", "faults", "degr", "heal ms", "max ms", "q ok", "q rej", "ins ok", "ins rej", "lost")
	fmt.Printf("%-10d %8d %8d %10.1f %10.1f %9d %9d %8d %8d %6d\n",
		len(schedules), faultsInjected, degradations, meanHealMillis, float64(healMax.Microseconds())/1e3,
		qOK.Load(), qRej.Load(), len(acked), insRej.Load(), ackedLost)
	fmt.Printf("scrubber: %d passes, %d pages verified during the storm\n", scrubRuns, scrubPages)
	if ackedLost > 0 {
		fmt.Fprintf(os.Stderr, "gaussbench: CHAOS FAILURE: %d acknowledged inserts lost\n", ackedLost)
		os.Exit(1)
	}
	fmt.Println()
}

// freshVectors derives n insertable vectors not present in ds: existing
// vectors re-identified under fresh ids with jittered means, so the inserts
// land all over the indexed space like real arrivals would.
func freshVectors(ds *dataset.Dataset, n int, seed int64) []pfv.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]pfv.Vector, n)
	for i := range out {
		src := ds.Vectors[rng.Intn(len(ds.Vectors))]
		mean := make([]float64, ds.Dim)
		sigma := make([]float64, ds.Dim)
		for j := 0; j < ds.Dim; j++ {
			mean[j] = src.Mean[j] + rng.NormFloat64()*src.Sigma[j]
			sigma[j] = src.Sigma[j]
		}
		out[i] = pfv.MustNew(uint64(1_000_000+i), mean, sigma)
	}
	return out
}

// pctMillis returns the p-quantile of lat in milliseconds; lat must be sorted.
func pctMillis(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	return float64(lat[int(float64(len(lat)-1)*p)].Microseconds()) / 1e3
}

// readLatencies runs 3-MLIQ queries against tr until stop closes (or, with a
// nil stop, for exactly count queries), returning the sorted latencies. The
// pause between queries makes each reader a latency sampler rather than a
// CPU-saturating load generator: on small machines spinning readers would
// starve the writers and measure scheduler pressure, not the read path.
func readLatencies(tr *gausstree.Tree, qs []dataset.Query, stop <-chan struct{}, count int, pause time.Duration) []time.Duration {
	var lat []time.Duration
	for i := 0; ; i++ {
		if stop != nil {
			select {
			case <-stop:
				sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
				return lat
			default:
			}
		} else if i >= count {
			sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
			return lat
		}
		q := qs[i%len(qs)].Vector
		t0 := time.Now()
		if _, err := tr.KMostLikely(q, 3); err != nil {
			check(err)
		}
		lat = append(lat, time.Since(t0))
		if pause > 0 {
			time.Sleep(pause)
		}
	}
}

// ingest measures the non-blocking write path on a durable index: a
// sustained multi-writer insert burst with concurrent readers. The headline
// contrasts are (a) acknowledged-durable inserts/s under group commit versus
// the serialized per-insert-checkpoint path (the only way the engine could
// make a single insert durable before the WAL existed), and (b) reader
// latency during the burst versus idle — snapshot-isolated reads should keep
// p99 in the same regime while writers hammer the tree. The merge-ingest
// figures drive the same durable tree in Options.Ingest mode: repeated
// observations of a fixed object population fold into the stored
// fingerprints instead of growing the index.
func (b *bench) ingest() {
	ds, qs := b.subset(min(b.n2, 20000), 200)
	fmt.Println("=== Ingest: non-blocking durable write path (DS2 subset) ===")
	dir, err := os.MkdirTemp("", "gaussbench-ingest")
	check(err)
	defer os.RemoveAll(dir)

	const (
		writers     = 32
		readers     = 4
		serial      = 150
		readerPause = 2 * time.Millisecond
	)
	burst := 6400
	if len(ds.Vectors) < 20000 {
		burst = 3200 // -quick
	}
	fresh := freshVectors(ds, burst, 99)

	// Serialized baseline: before the WAL, the only way to make one insert
	// durable was a full checkpoint (Sync) after it. The tiny CommitLatency
	// keeps the log from adding artificial ack delay on top.
	ser, err := gausstree.New(ds.Dim, gausstree.Options{
		Path: dir + "/serial.gtree", PageSize: b.pageSize, CommitLatency: time.Microsecond,
	})
	check(err)
	check(ser.BulkLoad(ds.Vectors))
	start := time.Now()
	for _, v := range fresh[:serial] {
		check(ser.Insert(v))
		check(ser.Sync())
	}
	serRate := float64(serial) / time.Since(start).Seconds()
	check(ser.Close())

	tr, err := gausstree.New(ds.Dim, gausstree.Options{Path: dir + "/burst.gtree", PageSize: b.pageSize})
	check(err)
	check(tr.BulkLoad(ds.Vectors))

	// Idle reader baseline, then the burst: every reader latency taken while
	// the writers are still running counts against the 2x-of-idle budget.
	idle := readLatencies(tr, qs, nil, 800, readerPause)

	stop := make(chan struct{})
	lats := make([][]time.Duration, readers)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			lats[r] = readLatencies(tr, qs, stop, 0, readerPause)
		}(r)
	}
	var wwg sync.WaitGroup
	var cursor atomic.Int64
	cursor.Store(-1)
	start = time.Now()
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= burst {
					return
				}
				check(tr.Insert(fresh[i]))
			}
		}()
	}
	wwg.Wait()
	burstWall := time.Since(start)
	close(stop)
	rwg.Wait()
	var during []time.Duration
	for _, l := range lats {
		during = append(during, l...)
	}
	sort.Slice(during, func(a, b int) bool { return during[a] < during[b] })

	ws, _ := tr.WALStats()
	burstRate := float64(burst) / burstWall.Seconds()
	check(tr.Close())

	// Merge-ingest mode: a fixed object population observed over and over;
	// the durable tree absorbs the stream without growing.
	const objects, obsPer, observers = 40, 60, 8
	bases := freshVectors(ds, objects, 7)
	obs := make([]pfv.Vector, 0, objects*obsPer)
	rng := rand.New(rand.NewSource(8))
	for r := 0; r < obsPer; r++ {
		for _, base := range bases {
			mean := make([]float64, ds.Dim)
			for j := range mean {
				mean[j] = base.Mean[j] + rng.NormFloat64()*base.Sigma[j]*0.2
			}
			obs = append(obs, pfv.MustNew(base.ID, mean, base.Sigma))
		}
	}
	ing, err := gausstree.New(ds.Dim, gausstree.Options{
		Path: dir + "/merge.gtree", PageSize: b.pageSize,
		Ingest: &gausstree.IngestOptions{MergeDistance: 2},
	})
	check(err)
	cursor.Store(-1)
	start = time.Now()
	var owg sync.WaitGroup
	for w := 0; w < observers; w++ {
		owg.Add(1)
		go func() {
			defer owg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= len(obs) {
					return
				}
				check(ing.Insert(obs[i]))
			}
		}()
	}
	owg.Wait()
	mergeWall := time.Since(start)
	ist, _ := ing.IngestStats()
	check(ing.Close())

	fmt.Printf("%-36s %14.0f\n", "serialized inserts/s (checkpoint)", serRate)
	fmt.Printf("%-36s %14.0f\n", "group-commit inserts/s", burstRate)
	fmt.Printf("%-36s %13.1fx\n", "insert speedup", burstRate/serRate)
	fmt.Printf("%-36s %8.3f/%.3f\n", "idle reader p50/p99 ms", pctMillis(idle, 0.50), pctMillis(idle, 0.99))
	fmt.Printf("%-36s %8.3f/%.3f\n", "burst reader p50/p99 ms", pctMillis(during, 0.50), pctMillis(during, 0.99))
	fmt.Printf("%-36s %14d\n", "reader samples during burst", len(during))
	fmt.Printf("%-36s %14d\n", "wal fsyncs", ws.Fsyncs)
	fmt.Printf("%-36s %14.1f\n", "mean group-commit size", ws.MeanGroupSize)
	fmt.Printf("%-36s %14.0f\n", "merge-ingest observations/s", float64(len(obs))/mergeWall.Seconds())
	fmt.Printf("%-36s %13.1f%%\n", "observations merged in place", 100*float64(ist.Merged)/float64(len(obs)))
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gaussbench:", err)
		os.Exit(1)
	}
}
