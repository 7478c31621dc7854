package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lastLine parses the final line of the benchmark's output the way the
// driver does and fails unless it has exactly the contract's keys.
func lastLine(t *testing.T, out string) (metrics map[string]struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}, attempted, failed int, correct bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	if len(raw) != 4 {
		t.Fatalf("last line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	for key, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(raw[key], dst); err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
	}
	return metrics, attempted, failed, correct
}

// Every workload and the traced run at smoke size: all named metrics are
// present and finite where they are defined, nothing fails, and the traced
// run's last line carries exactly the per-layer set of BENCHMARK.json.
func TestSmokeTracedAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	result := filepath.Join(dir, "result.json")
	var out bytes.Buffer
	if err := run([]string{"-workload", "all", "-smoke", "-trace", "1", "-seconds", "0.2", "-seed", "3", "-scratch", dir, "-out", result}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	rf, err := readResultFile(result)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Env.GoVersion == "" || rf.Env.NProc == 0 || rf.Env.GOMAXPROCS == 0 || rf.Env.CPUModel == "" || rf.Env.Seed != 3 {
		t.Errorf("environment not recorded: %+v", rf.Env)
	}
	byName := map[string]workloadResult{}
	for _, w := range rf.Workloads {
		byName[w.Name] = w
	}
	pages := map[string]float64{}
	for _, name := range allWorkloads {
		w, ok := byName[name]
		if !ok {
			t.Errorf("workload %s missing from the result file", name)
			continue
		}
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, correct %v: %s", name, w.Attempted, w.Failed, w.Correct, w.FirstErr)
		}
		got := map[string]metricResult{}
		for _, m := range w.Metrics {
			got[m.Kind+"/"+m.Name] = m
			if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
				t.Errorf("%s: %s is not finite", name, m.Name)
			}
		}
		want := map[string]metricDef{}
		for _, d := range endToEnd {
			if d.demoted { // reported, but as a per-layer row that nothing judges
				want["per_layer/"+d.asLayer().name] = d
			} else {
				want["end_to_end/"+d.name] = d
			}
		}
		for _, d := range perLayer {
			want["per_layer/"+d.name] = d
		}
		for key, d := range want {
			m, ok := got[key]
			if ok != d.definedOn(name) {
				t.Errorf("%s: %s present = %v, defined = %v", name, key, ok, d.definedOn(name))
			}
			if ok && (m.Unit != d.unit || m.Samples == 0) {
				t.Errorf("%s: %s has unit %q and %d samples", name, key, m.Unit, m.Samples)
			}
		}
		if m := got["end_to_end/error_rate"]; m.Median != 0 {
			t.Errorf("%s: error_rate = %v", name, m.Median)
		}
		pages[name] = got["end_to_end/pages_per_query"].Median
	}
	if pages[wWarm] != pages[wCold] || pages[wWarm] != pages[wMixed] || pages[wWarm] == 0 {
		t.Errorf("pages_per_query: warm-inproc %v, cold-reopen %v, mixed-rw-file %v; one index, so they must be identical", pages[wWarm], pages[wCold], pages[wMixed])
	}
	pin, ok := byName["fig7"]
	if !ok || len(pin.Metrics) != len(fig7Rows) {
		t.Errorf("fig7 section has %d rows, want %d", len(pin.Metrics), len(fig7Rows))
	}

	// The last line is mixed-rw-file's, with the driver's per-layer set.
	metrics, attempted, failed, correct := lastLine(t, out.String())
	if !correct || failed != 0 || attempted < 1 {
		t.Errorf("last line: attempted %d, failed %d, correct %v", attempted, failed, correct)
	}
	want := driverLayer()
	if len(metrics) != len(want) {
		t.Errorf("last line has %d metrics, want %d", len(metrics), len(want))
	}
	for _, d := range want {
		m, ok := metrics[d.name]
		if !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("last line: %s missing or malformed", d.name)
		}
	}
	for _, name := range []string{"e2e.insert_p50_us", "e2e.inserts_per_s", "e2e.kmliq_p99_us", "wal.append_durable_us", "core.insert_us"} {
		if m := metrics[name]; m.Value == nil || *m.Value <= 0 {
			t.Errorf("last line: %s must be positive on mixed-rw-file", name)
		}
	}
	if m := metrics["client.roundtrip_self_us"]; m.Value == nil || *m.Value != 0 {
		t.Error("last line: client.roundtrip_self_us must be 0 on mixed-rw-file (layer not on its path)")
	}

	// The spans were written, one JSON object per line, for every workload.
	raw, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var row struct {
			Workload string `json:"workload"`
			span
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("spans.jsonl: %v", err)
		}
		if row.ID == 0 || row.Req == 0 || row.End < row.Start || row.Layer == "" {
			t.Fatalf("malformed span: %s", line)
		}
		seen[row.Workload]++
	}
	for _, name := range allWorkloads {
		if seen[name] == 0 {
			t.Errorf("no spans recorded for %s", name)
		}
	}
}

// An untraced run of one workload ends in the gated end-to-end metrics and
// nothing else, each a nonzero number.
func TestSmokeUntracedLastLine(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", wServed, "-smoke", "-trace", "0", "-seconds", "0.2", "-scratch", t.TempDir()}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	metrics, _, failed, correct := lastLine(t, out.String())
	if !correct || failed != 0 {
		t.Errorf("failed %d, correct %v", failed, correct)
	}
	want := gated()
	if len(metrics) != len(want) {
		t.Errorf("last line has %d metrics, want %d", len(metrics), len(want))
	}
	for _, d := range want {
		if m, ok := metrics[d.name]; !ok || m.Value == nil || *m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s missing, zero or malformed", d.name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-compare", "only-one.json"},
		{"-agree", "only-one.json"},
		{"-compare", "-agree", "a.json", "b.json"},
		{"stray"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
