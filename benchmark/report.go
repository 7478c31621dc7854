package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const schemaName = "gausstree-benchmark/v1"

// resultFile is the one schema every set of runs is written in; -compare
// reads two of them.
type resultFile struct {
	Schema    string           `json:"schema"`
	Env       envInfo          `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// envInfo records what a number depends on besides the code.
type envInfo struct {
	Seed        int64   `json:"seed"`
	Repeats     int     `json:"repeats"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	Smoke       bool    `json:"smoke"`
	GitRevision string  `json:"git_revision"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	GOGC        string  `json:"gogc"`
	CPUModel    string  `json:"cpu_model"`
	Started     string  `json:"started"`
}

type workloadResult struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	Load      string         `json:"load"`
	Digests   []string       `json:"input_digests"` // one per repeat
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Correct   bool           `json:"correct"`
	FirstErr  string         `json:"first_error,omitempty"`
	Metrics   []metricResult `json:"metrics"`
}

// metricResult aggregates one metric over the repeats of a set.
type metricResult struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Kind    string    `json:"kind"` // "end_to_end" or "per_layer"
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Samples int       `json:"samples"` // per repeat
	Min     float64   `json:"min"`
	Median  float64   `json:"median"`
	Max     float64   `json:"max"`
	Values  []float64 `json:"values"` // one per repeat
	Note    string    `json:"note,omitempty"`
}

func captureEnv() envInfo {
	e := envInfo{
		GitRevision: "unknown",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		GOGC:        os.Getenv("GOGC"),
		CPUModel:    cpuModel(),
		Started:     time.Now().UTC().Format(time.RFC3339),
	}
	if e.GOGC == "" {
		e.GOGC = "100 (default)"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.GitRevision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.GitRevision += "+modified"
				}
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func whyOf(workload string) string {
	if workload == "fig7" {
		return "paper pin (section 6, Fig. 7): logical pages per 1-MLIQ for the Gauss-tree, X-tree, VA-file and scan on DS1 full and a 20 000-vector DS2 subset"
	}
	for _, w := range workloadWhy {
		if w.name == workload {
			return w.why
		}
	}
	return ""
}

func loadOf(workload string) string {
	switch workload {
	case "fig7":
		return "counts only: 100 1-MLIQ per engine through internal/eval"
	case wServed:
		return "closed loop, 1 client over loopback TCP, client and server in one process on one P (GOMAXPROCS 1 during the window)"
	case wMixed:
		return "closed loop, 1 reader goroutine beside 1 writer goroutine, one process"
	case wCold:
		return "closed loop, 1 client, program-cold (reopened every 50 queries) with the OS page cache hot: not device-cold"
	default:
		return "closed loop, 1 client goroutine, one process"
	}
}

// layerValues returns everything a traced run reports per layer: the
// ledger, plus every end-to-end metric under the prefix "e2e." (driverLayer
// picks the ones the driver does not gate).
func layerValues(r *runResult) values {
	out := values{}
	for k, v := range r.layer {
		out[k] = v
	}
	for k, v := range r.e2e {
		out["e2e."+k] = v
	}
	return out
}

// aggregate folds the repeats of one workload into a workloadResult.
func aggregate(workload string, runs []*runResult) workloadResult {
	wr := workloadResult{Name: workload, Why: whyOf(workload), Load: loadOf(workload), Correct: true}
	for _, r := range runs {
		wr.Digests = append(wr.Digests, r.digest)
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		if r.firstErr != nil && wr.FirstErr == "" {
			wr.FirstErr = r.firstErr.Error()
		}
	}
	wr.Correct = wr.Failed == 0
	add := func(d metricDef, kind string, get func(*runResult) (sample, bool)) {
		mr := metricResult{Name: d.name, Unit: d.unit, Kind: kind, Better: d.better, Bound: d.bound, Note: d.note}
		for _, r := range runs {
			if s, ok := get(r); ok {
				mr.Values = append(mr.Values, s.v)
				mr.Samples = s.n
			}
		}
		if len(mr.Values) == 0 {
			return
		}
		mr.Min, mr.Max = mr.Values[0], mr.Values[0]
		for _, v := range mr.Values {
			mr.Min = math.Min(mr.Min, v)
			mr.Max = math.Max(mr.Max, v)
		}
		mr.Median = median(mr.Values)
		wr.Metrics = append(wr.Metrics, mr)
	}
	fromE2E := func(name string) func(*runResult) (sample, bool) {
		return func(r *runResult) (sample, bool) { s, ok := r.e2e[name]; return s, ok }
	}
	for _, d := range endToEnd {
		if !d.demoted {
			add(d, "end_to_end", fromE2E(d.name))
		}
	}
	for _, d := range append(append([]metricDef(nil), perLayer...), fig7Rows...) {
		add(d, "per_layer", func(r *runResult) (sample, bool) { s, ok := r.layer[d.name]; return s, ok })
	}
	for _, d := range endToEnd {
		if d.demoted {
			add(d.asLayer(), "per_layer", fromE2E(d.name))
		}
	}
	return wr
}

// printWorkload prints every metric by name with its unit, sample count and
// bound.
func printWorkload(w io.Writer, wr workloadResult) {
	fmt.Fprintf(w, "\n== %s ==\n   why:  %s\n   load: %s\n", wr.Name, wr.Why, wr.Load)
	fmt.Fprintf(w, "   attempted %d, failed %d, correct %v\n", wr.Attempted, wr.Failed, wr.Correct)
	if wr.FirstErr != "" {
		fmt.Fprintf(w, "   first error: %s\n", wr.FirstErr)
	}
	kind := ""
	for _, m := range wr.Metrics {
		if m.Kind != kind {
			kind = m.Kind
			fmt.Fprintf(w, "   -- %s --\n", kind)
			fmt.Fprintf(w, "   %-40s %14s %-6s %9s %7s  %s\n", "metric", "median", "unit", "samples", "bound", "min .. max over repeats")
		}
		bound := "-"
		if m.Kind == "end_to_end" {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(w, "   %-40s %14.6g %-6s %9d %7s  %.6g .. %.6g (%d)\n", m.Name, m.Median, m.Unit, m.Samples, bound, m.Min, m.Max, len(m.Values))
	}
}

// driverLine is the contract's last line of standard output for one run of
// one workload: the gated end-to-end metrics with -trace 0, the per-layer
// set with -trace 1.
func driverLine(r *runResult, traced bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mv{}}
	defs, vals := gated(), r.e2e
	if traced {
		defs, vals = driverLayer(), layerValues(r)
	}
	for _, d := range defs {
		s, ok := vals[d.name]
		if !ok && !d.definedOn(r.workload) {
			ok = true // the layer is not on this workload's path: 0
		}
		if !ok || math.IsNaN(s.v) || math.IsInf(s.v, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		line.Metrics[d.name] = mv{s.v, d.unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

func writeResultFile(path string, rf resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != schemaName {
		return rf, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, schemaName)
	}
	return rf, nil
}
