package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the program prints. They must say the same thing.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadWhy) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloadWhy))
	}
	for i, w := range workloadWhy {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("why of %s is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, rows []row, defs []metricDef, bounded bool) {
		if len(rows) != len(defs) {
			t.Errorf("%s: %d rows in BENCHMARK.json, %d in the program", kind, len(rows), len(defs))
			return
		}
		for i, d := range defs {
			r := rows[i]
			if r.Name != d.name || r.Unit != d.unit || r.Better != d.better {
				t.Errorf("%s row %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, r.Name, r.Unit, r.Better, d.name, d.unit, d.better)
			}
			if bounded != (r.Bound != nil) || (bounded && *r.Bound != d.bound) {
				t.Errorf("%s row %s: bound differs from the program's %v", kind, d.name, d.bound)
			}
			if len(d.name) > 64 || len(d.unit) > 16 {
				t.Errorf("%s row %s: name or unit too long", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, gated(), true)
	check("per_layer", m.PerLayer, driverLayer(), false)
	if n := len(m.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	hasSetup := false
	for _, d := range gated() {
		if d.bound > 0.25 {
			t.Errorf("%s: bound %v above 0.25", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be a gated metric")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}
