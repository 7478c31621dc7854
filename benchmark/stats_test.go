package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000)
	if v, beyond := percentile(xs, 0.50); v != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %v with %d beyond, want 500 with 500", v, beyond)
	}
	if v, beyond := percentile(xs, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := percentile(seq(1), 0.99); v != 1 {
		t.Errorf("p99 of one sample = %v, want 1", v)
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, beyond)
	}
}

// onePass is a pass as runPass leaves it: byOp in op order, lat sorted.
func onePass(byOp []float64, wall float64) pass {
	return pass{byOp: byOp, lat: sorted(byOp), wall: wall}
}

// A p99 is reported only when ten samples lie beyond it: 1000 samples are
// enough, 999 are not.
func TestFoldReportsP99OnlyWithTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {2000, true}, {100, false}} {
		for _, e := range []estimator{quietest, middle} {
			f := fold([]pass{onePass(seq(tc.n), 1), onePass(seq(tc.n), 1)}, tailMin, e)
			if f.hasP99 != tc.want {
				t.Errorf("%d samples per pass: hasP99 = %v, want %v", tc.n, f.hasP99, tc.want)
			}
		}
	}
}

// quietest takes every op at the lowest latency any pass measured for it,
// so a disturbance shows only where it hit the same op in every pass; middle
// takes each statistic per pass and reports the median pass.
func TestFoldEstimators(t *testing.T) {
	scaled := func(c float64) []float64 {
		xs := seq(1000)
		for i := range xs {
			xs[i] *= c
		}
		return xs
	}
	// Three passes of ops costing 1..1000 µs; each pass is disturbed (x10)
	// on a different third of its ops.
	var passes []pass
	for r := 0; r < 3; r++ {
		xs := seq(1000)
		for i := range xs {
			if i%3 == r {
				xs[i] *= 10
			}
		}
		passes = append(passes, onePass(xs, 1))
	}
	f := fold(passes, tailMin, quietest)
	if f.p50 != 500 || f.p99 != 990 || f.samples != 3000 || f.busy != 500500/1e6 {
		t.Errorf("quietest: p50, p99, samples, busy = %v, %v, %d, %v; want 500, 990, 3000, 0.5005", f.p50, f.p99, f.samples, f.busy)
	}
	passes = []pass{onePass(scaled(2), 3), onePass(scaled(10), 9), onePass(scaled(1), 5)}
	if f := fold(passes, tailMin, middle); f.p50 != 1000 || f.p99 != 1980 || f.busy != 5 {
		t.Errorf("middle: p50, p99, busy = %v, %v, %v; want 1000, 1980, 5", f.p50, f.p99, f.busy)
	}
	if f := fold(nil, tailMin, quietest); f.p50 != 0 || f.hasP99 {
		t.Errorf("no passes: %+v", f)
	}
	// A pass that failed part-way counts for the ops it has.
	if q := quietOps([][]float64{{5, 5, 5}, {1}, {9, 2, 9, 9}}); len(q) != 3 || q[0] != 1 || q[1] != 2 || q[2] != 5 {
		t.Errorf("quietOps = %v, want [1 2 5]", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if s := spread(seq(10)); math.Abs(s-1.0) > 1e-12 { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %v, want 0", s)
	}
	if s := spread([]float64{5, 5, 5}); s != 0 {
		t.Errorf("spread of equal values = %v, want 0", s)
	}
}
