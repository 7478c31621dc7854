package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pagefile"
)

// Layer keys of the cold cycle's chain.
const (
	layerCycle = "cold_cycle"
	layerOpen  = "gausstree.open"
	layerClose = "gausstree.close"
)

// buildFile bulk-loads vs into a new index file at path and closes it.
func buildFile(path string, in *inputs, format gausstree.LeafFormat) (bulkS float64, err error) {
	removeIndex(path)
	tr, err := gausstree.New(in.dim, gausstree.Options{Path: path, LeafFormat: format})
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := tr.BulkLoad(in.vectors); err != nil {
		tr.Close()
		return 0, err
	}
	bulkS = time.Since(t).Seconds()
	return bulkS, tr.Close()
}

// coldPass is one pass of cold-reopen: the pool in cycles of
// Open -> cycleLen 3-MLIQ -> Close.
type coldPass struct {
	pass
	cycleMS []float64      // per cycle, in cycle order
	io      pagefile.Stats // summed over the cycles' page managers
}

// coldRunPass runs cycles cycles starting at pool query 0. lat and cyc are
// preallocated. With sb set it records a root span per cycle and nested
// spans for Open, every query and Close. answers, when non-nil, collects
// the matches of every query (the warm-up's use).
func coldRunPass(ctx context.Context, path string, pool []gausstree.Vector, cycleLen, cycles int, lat, cyc []float64, sb *spanBuf, answers *[]answer) coldPass {
	var out coldPass
	lat, cyc = lat[:cycles*cycleLen], cyc[:cycles]
	fail := func(err error) {
		out.failed++
		if out.err == nil {
			out.err = err
		}
	}
	start := time.Now()
	for c := 0; c < cycles; c++ {
		var root, si int
		var req int64
		var rootID int64
		t0 := time.Now()
		if sb != nil {
			req = sb.rec.req()
			root = sb.begin(0, req, layerCycle, "cycle", false)
			rootID = sb.spans[root].ID
			si = sb.begin(rootID, req, layerOpen, "gausstree.Open", false)
		}
		tr, err := gausstree.Open(path)
		if sb != nil {
			sb.end(si)
		}
		if err != nil {
			fail(fmt.Errorf("cycle %d: open: %w", c, err))
			lat, cyc = lat[:c*cycleLen], cyc[:c]
			break
		}
		var phys uint64
		for j := 0; j < cycleLen; j++ {
			i := c*cycleLen + j
			if sb != nil {
				si = sb.begin(rootID, req, layerFacade, "Tree.KMLIQContext", false)
			}
			q0 := time.Now()
			ms, st, err := tr.KMLIQContext(ctx, pool[i], kK)
			lat[i] = float64(time.Since(q0)) / 1e3
			if sb != nil {
				s := sb.end(si)
				io, _ := tr.Stats()
				s.Pages, s.Nodes, s.Scored = st.PageAccesses, st.NodesVisited, st.VectorsScored
				s.Physical, phys = io.PhysicalReads-phys, io.PhysicalReads
			}
			out.pages += st.PageAccesses
			if err != nil {
				fail(fmt.Errorf("cycle %d query %d: %w", c, i, err))
			}
			if answers != nil {
				*answers = append(*answers, answer{pool[i], ms})
			}
		}
		if sb != nil {
			io, _ := tr.Stats()
			out.io = out.io.Add(io)
			si = sb.begin(rootID, req, layerClose, "Tree.Close", false)
		}
		err = tr.Close()
		if sb != nil {
			sb.end(si)
			sb.end(root)
		}
		cyc[c] = float64(time.Since(t0)) / 1e6
		if err != nil {
			fail(fmt.Errorf("cycle %d: close: %w", c, err))
		}
	}
	out.wall = time.Since(start).Seconds()
	out.byOp, out.lat, out.cycleMS = lat, sorted(lat), cyc
	return out
}

// runCold is the cold-reopen workload.
func runCold(ctx context.Context, cfg runConfig) (*runResult, error) {
	res, in, genS, err := begin(wCold, cfg, 0)
	if err != nil {
		return nil, err
	}

	path := filepath.Join(cfg.scratch, "cold.gtree")
	defer removeIndex(path)
	cycleLen := cfg.sz.cycleLen
	cycles := len(in.pool) / cycleLen
	checkCycles := (cfg.sz.checked + cycleLen - 1) / cycleLen
	var bulkS float64
	var kAns []answer
	setupS, err := medianSetup(func() error {
		var err error
		if bulkS, err = buildFile(path, in, gausstree.LeafExact); err != nil {
			return err
		}
		kAns = kAns[:0]
		n := checkCycles * cycleLen
		warm := coldRunPass(ctx, path, in.pool, cycleLen, checkCycles, make([]float64, n), make([]float64, checkCycles), nil, &kAns)
		return warm.err
	}, func() error { removeIndex(path); return nil })
	if err != nil {
		return nil, err
	}
	res.e2e.set("setup_s", genS+setupS, setups)

	run := func(sb *spanBuf) coldPass {
		return coldRunPass(ctx, path, in.pool, cycleLen, cycles, make([]float64, cycles*cycleLen), make([]float64, cycles), sb, nil)
	}
	// The window, like harness.go's: at least two passes, the first sizes it,
	// and every query and every cycle is taken at its quietest.
	var passes []pass
	var cycleMS [][]float64
	for i, n := 0, 2; i < n; i++ {
		p := run(nil)
		passes = append(passes, p.pass)
		cycleMS = append(cycleMS, p.cycleMS)
		if i == 0 {
			n = max(n, int(math.Round(cfg.seconds/p.wall)))
		}
	}
	quietCycles := quietOps(cycleMS)
	f := fold(passes, cfg.sz.tail, quietest)
	res.attempted += f.samples
	res.fail(f.failed, f.err)
	res.e2e.set("kmliq_p50_us", f.p50, f.samples)
	if f.hasP99 {
		res.e2e.set("kmliq_p99_us", f.p99, f.samples)
	}
	res.e2e.set("pages_per_query", float64(f.pages)/float64(f.samples), f.samples)
	res.e2e.set("queries_per_s", float64(cycles*cycleLen)/(sum(quietCycles)/1e3), f.samples)
	res.e2e.set("cold_cycle_ms", median(quietCycles), len(passes)*cycles)
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	res.e2e.set("bytes_per_user_byte", float64(fi.Size())/in.userBytes(), 1)
	res.e2e.set("heap_mb", heapMB(), 1)
	res.check(in, kAns[:cfg.sz.checked], nil)
	res.finish()
	if !cfg.trace {
		return res, nil
	}

	// Traced run: one pass with spans around Open, every query and Close;
	// then the warm peel on a tree left open, the leaf layers, and the
	// quantized leaf formats measured where they might win.
	out := res.layer
	rec := newRecorder()
	traced := run(rec.buf(cycles * (cycleLen + 3)))
	if traced.err != nil {
		return nil, fmt.Errorf("traced pass: %w", traced.err)
	}
	out.set("obs.trace_overhead_pct", overheadPct(lastP50(passes), lastP50([]pass{traced.pass})), len(traced.lat))
	ioRows(traced.io, len(traced.lat), out)
	cycleSpans := rec.all()
	layers, _, unattributed := chainLedger(cycleSpans)
	out.set("gausstree.open_ms", layers[layerOpen]/1e3, cycles)
	out.set("gausstree.close_ms", layers[layerClose]/1e3, cycles)
	out.set("unattributed_us", unattributed, cycles)
	out.set("gausstree.bulkload_s", bulkS, 1)
	out.set("core.bulkload_vectors_per_s", float64(len(in.vectors))/bulkS, len(in.vectors))

	qs := in.pool[:peelN(cfg.sz)]
	tree, err := gausstree.Open(path)
	if err != nil {
		return nil, err
	}
	defer tree.Close()
	tw, err := fileTwin(path, 50<<20)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	if _, err := coreCounts(ctx, tw, qs, out); err != nil { // also warms the twin
		return nil, err
	}
	kmliq := func(ctx context.Context, q gausstree.Vector) error {
		_, _, err := tree.KMLIQContext(ctx, q, kK)
		return err
	}
	for _, q := range qs { // warm the facade tree
		if err := kmliq(ctx, q); err != nil {
			return nil, err
		}
	}
	peeled, err := peelInproc(ctx, rec, tree, tw, qs)
	if err != nil {
		return nil, err
	}
	ledgerInproc(peeled, out)
	out.set("core.first_touch_us_per_page", firstTouchUS(cycleSpans, peeled, len(qs)), len(qs))
	if err := facadeAllocs(ctx, qs, kmliq, out); err != nil {
		return nil, err
	}
	if err := setObsSpans(ctx, qs, kmliq, out); err != nil {
		return nil, err
	}
	if err := kernelTimes(tw, in.vectors, qs, cfg.sz.kernel, out); err != nil {
		return nil, err
	}
	if err := readMissUS(path, out); err != nil {
		return nil, err
	}
	for _, lf := range []gausstree.LeafFormat{gausstree.LeafFloat32, gausstree.LeafGrid8} {
		if err := leafEvidence(ctx, cfg, in, lf, out); err != nil {
			return nil, fmt.Errorf("leaf format %s: %w", lf, err)
		}
	}
	return res, writeSpans(cfg.spans, wCold, rec.all())
}

// firstTouchUS is what a page costs the first time a reopened tree touches
// it: the cold query time of the first n pool queries (from the traced
// cycles) minus the same queries' warm time (from the peel), per physical
// read the cold queries made.
func firstTouchUS(cycleSpans, peeled []span, n int) float64 {
	var coldNS, warmNS int64
	var physical uint64
	seen := 0
	for _, s := range cycleSpans {
		if s.Layer == layerFacade && seen < n {
			coldNS += s.dur()
			physical += s.Physical
			seen++
		}
	}
	for _, s := range peeled {
		if s.Layer == layerFacade {
			warmNS += s.dur()
		}
	}
	if physical == 0 {
		return 0
	}
	return float64(coldNS-warmNS) / 1e3 / float64(physical)
}

// leafEvidence records, for one quantized leaf format, the three numbers
// ROADMAP item 3's audit lacks: file size, cold latency and warm latency on
// the same data and queries as the exact format.
func leafEvidence(ctx context.Context, cfg runConfig, in *inputs, lf gausstree.LeafFormat, out values) error {
	path := filepath.Join(cfg.scratch, "leaf-"+lf.String()+".gtree")
	defer removeIndex(path)
	if _, err := buildFile(path, in, lf); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	prefix := "core.leaf." + lf.String() + "."
	out.set(prefix+"bytes_per_user_byte", float64(fi.Size())/in.userBytes(), 1)

	// Two cycles: the quantized formats answer in milliseconds.
	cycleLen := cfg.sz.cycleLen
	cycles := 2
	cold := coldRunPass(ctx, path, in.pool, cycleLen, cycles, make([]float64, cycles*cycleLen), make([]float64, cycles), nil, nil)
	if cold.err != nil {
		return cold.err
	}
	p50, _ := percentile(cold.lat, 0.5)
	out.set(prefix+"cold_kmliq_p50_us", p50, len(cold.lat))

	tr, err := gausstree.Open(path)
	if err != nil {
		return err
	}
	defer tr.Close()
	qs := in.pool[:cycles*cycleLen]
	op := treeOp(tr, qs, false)
	ph := phase{name: "kmliq", ops: len(qs), reads: 1, do: op}
	if warm := runPass(ctx, ph, make([]float64, len(qs)), nil); warm.err != nil {
		return warm.err
	}
	warm := runPass(ctx, ph, make([]float64, len(qs)), nil)
	if warm.err != nil {
		return warm.err
	}
	p50, _ = percentile(warm.lat, 0.5)
	out.set(prefix+"warm_kmliq_p50_us", p50, len(warm.lat))
	return nil
}
