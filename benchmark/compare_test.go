package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func metric(better string, bound float64, vals ...float64) metricResult {
	return metricResult{Name: "m", Unit: "us", Kind: "end_to_end", Better: better, Bound: bound, Values: vals, Median: median(vals)}
}

func TestJudge(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 0.995} }
	for _, tc := range []struct {
		name string
		a, b metricResult
		want string
	}{
		{"unchanged", metric("lower", 0.10, steady(100)...), metric("lower", 0.10, steady(100)...), vPass},
		{"worse within bound", metric("lower", 0.10, steady(100)...), metric("lower", 0.10, steady(109)...), vPass},
		{"worse beyond bound", metric("lower", 0.10, steady(100)...), metric("lower", 0.10, steady(112)...), vFail},
		{"better", metric("lower", 0.10, steady(100)...), metric("lower", 0.10, steady(50)...), vPass},
		{"higher is better, dropped", metric("higher", 0.10, steady(1000)...), metric("higher", 0.10, steady(850)...), vFail},
		{"higher is better, rose", metric("higher", 0.10, steady(1000)...), metric("higher", 0.10, steady(1500)...), vPass},
		{"noisy, medians agree", metric("lower", 0.10, 80, 100, 120, 90, 130), metric("lower", 0.10, steady(100)...), vUnresolved},
		{"noisy, looks worse", metric("lower", 0.10, 80, 100, 120, 90, 130), metric("lower", 0.10, steady(125)...), vUnresolved},
		{"noisy, but every run of b beats every run of a", metric("lower", 0.10, 80, 100, 120, 90, 130), metric("lower", 0.10, steady(60)...), vPass},
		{"exact count unchanged", metric("lower", 0, 105.4, 105.4), metric("lower", 0, 105.4, 105.4), vPass},
		{"exact count moved", metric("lower", 0, 105.4, 105.4), metric("lower", 0, 105.5, 105.5), vFail},
		{"exact count fell", metric("lower", 0, 105.4, 105.4), metric("lower", 0, 99, 99), vPass},
		{"zero stays zero", metric("lower", 0, 0), metric("lower", 0, 0), vPass},
		{"zero became nonzero", metric("lower", 0, 0), metric("lower", 0, 0.01), vFail},
		{"single runs have no spread", metric("lower", 0.10, 100), metric("lower", 0.10, 111), vFail},
	} {
		if _, _, _, got := judge(tc.a, tc.b, false); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Agreement of two sets of one commit has no parent: swapping the files
// must not change a verdict, and a set that reads better by more than the
// bound disagrees as much as one that reads worse.
func TestJudgeAgreeIsSymmetric(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 0.995} }
	for _, tc := range []struct {
		name string
		a, b metricResult
		want string
	}{
		{"within bound", metric("lower", 0.25, steady(100)...), metric("lower", 0.25, steady(120)...), vPass},
		// 1284 -> 1618 is +26.0 %, 1618 -> 1284 only -20.6 %: directional
		// judging passed one order of the committed baseline and failed the other.
		{"beyond bound one way only", metric("lower", 0.25, steady(1284)...), metric("lower", 0.25, steady(1618)...), vFail},
		{"higher is better", metric("higher", 0.10, steady(1000)...), metric("higher", 0.10, steady(1120)...), vFail},
		{"spread wider than bound", metric("lower", 0.10, 80, 100, 120, 90, 130), metric("lower", 0.10, steady(60)...), vUnresolved},
		{"exact count", metric("lower", 0, 105.4, 105.4), metric("lower", 0, 99, 99), vFail},
	} {
		d1, _, _, ab := judge(tc.a, tc.b, true)
		d2, _, _, ba := judge(tc.b, tc.a, true)
		if ab != tc.want || ba != tc.want || d1 != d2 {
			t.Errorf("%s: verdicts %s and %s (deltas %v, %v), want %s both ways", tc.name, ab, ba, d1, d2, tc.want)
		}
	}
}

func TestWorsening(t *testing.T) {
	if d := worsening("lower", 100, 110); d < 0.0999 || d > 0.1001 {
		t.Errorf("lower-is-better 100 -> 110: %v, want 0.10", d)
	}
	if d := worsening("higher", 100, 110); d > -0.0999 || d < -0.1001 {
		t.Errorf("higher-is-better 100 -> 110: %v, want -0.10", d)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, p50 float64) string {
		rf := resultFile{Schema: schemaName, Workloads: []workloadResult{{
			Name: wWarm,
			Metrics: []metricResult{
				metric("lower", 0.10, p50, p50*1.01, p50*0.99),
				{Name: "core.query_us", Kind: "per_layer", Values: []float64{1}, Median: 1},
			},
		}}}
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, worse := file("a.json", 100), file("same.json", 101), file("worse.json", 130)
	var out bytes.Buffer
	if err := compareFiles(&out, a, same, false); err != nil {
		t.Errorf("equal files: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 PASS, 0 FAIL, 0 UNRESOLVED; 0 demoted") {
		t.Errorf("per-layer rows must not be judged:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a, worse, false); err == nil {
		t.Errorf("a 30%% regression passed:\n%s", out.String())
	}
	if err := compareFiles(&out, worse, a, false); err != nil {
		t.Errorf("a 23%% gain failed: %v", err)
	}
	if err := compareFiles(&out, worse, a, true); err == nil {
		t.Error("two sets 30% apart agree")
	}

	// A file written before a metric was demoted still calls it end-to-end;
	// its verdict is shown and counts for nothing.
	old := func(name string, p99 float64) string {
		m := metric("lower", 0.10, p99, p99*1.3, p99*0.7)
		m.Name = "kmliq_p99_us"
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, resultFile{Schema: schemaName, Workloads: []workloadResult{{Name: wWarm, Metrics: []metricResult{m}}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out.Reset()
	if err := compareFiles(&out, old("old-a.json", 1000), old("old-b.json", 1500), true); err != nil {
		t.Errorf("a demoted metric failed the agreement: %v", err)
	}
	if !strings.Contains(out.String(), "UNRESOLVED, demoted") || !strings.Contains(out.String(), "0 UNRESOLVED; 1 demoted") {
		t.Errorf("demoted metric not reported as such:\n%s", out.String())
	}
	if _, err := readResultFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("reading a missing file succeeded")
	}
}
