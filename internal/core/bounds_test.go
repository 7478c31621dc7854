package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/query"
)

// removeTerm takes one term exp(x) back out of a: a swap for nothing.
func removeTerm(a *scaledAccum, x float64) { a.swap(expSum{x, 1}, expSum{}) }

func TestScaledAccumBasics(t *testing.T) {
	var a scaledAccum
	if !math.IsInf(a.log(), -1) {
		t.Error("empty accumulator should be log 0")
	}
	a.add(math.Log(3))
	a.add(math.Log(4))
	if math.Abs(a.log()-math.Log(7)) > 1e-12 {
		t.Errorf("log = %v, want ln 7", a.log())
	}
	removeTerm(&a, math.Log(3))
	if math.Abs(a.log()-math.Log(4)) > 1e-12 {
		t.Errorf("after remove log = %v, want ln 4", a.log())
	}
	removeTerm(&a, math.Log(100)) // over-removal clamps to zero, never negative
	if !math.IsInf(a.log(), -1) {
		t.Errorf("clamped accumulator log = %v", a.log())
	}
}

func TestScaledAccumExtremeRange(t *testing.T) {
	var a scaledAccum
	a.add(-5000) // far below float64 linear range
	a.add(2000)  // far above
	a.add(1999)
	// exp(2000) dominates; ln(e^2000 + e^1999) = 2000 + ln(1+e^-1).
	want := 2000 + math.Log(1+math.Exp(-1))
	if math.Abs(a.log()-want) > 1e-9 {
		t.Errorf("log = %v, want %v", a.log(), want)
	}
	removeTerm(&a, 2000)
	if math.Abs(a.log()-1999) > 1e-6 {
		t.Errorf("after removing dominant: log = %v, want 1999", a.log())
	}
}

func TestScaledAccumNegInfIgnored(t *testing.T) {
	var a scaledAccum
	a.add(math.Inf(-1))
	if !math.IsInf(a.log(), -1) {
		t.Error("-Inf must contribute nothing")
	}
	a.add(1)
	removeTerm(&a, math.Inf(-1))
	if math.Abs(a.log()-1) > 1e-12 {
		t.Errorf("log = %v", a.log())
	}
}

func TestScaledAccumRandomizedAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var a scaledAccum
	var members []float64
	for step := 0; step < 3000; step++ {
		if rng.Float64() < 0.6 || len(members) == 0 {
			x := rng.NormFloat64() * 50
			a.add(x)
			members = append(members, x)
		} else {
			i := rng.Intn(len(members))
			removeTerm(&a, members[i])
			members = append(members[:i], members[i+1:]...)
		}
	}
	direct := math.Inf(-1)
	for _, x := range members {
		direct = logAddExp(direct, x)
	}
	if len(members) == 0 {
		if !math.IsInf(a.log(), -1) {
			t.Errorf("log = %v, want -Inf", a.log())
		}
		return
	}
	if math.Abs(a.log()-direct) > 1e-6 {
		t.Errorf("drifted: accum %v vs direct %v", a.log(), direct)
	}
}

func TestLogAddExp(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{math.Log(2), math.Log(3), math.Log(5)},
		{math.Inf(-1), 1, 1},
		{1, math.Inf(-1), 1},
		{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
		{-1000, -1001, -1000 + math.Log(1+math.Exp(-1))},
	}
	for _, c := range cases {
		got := logAddExp(c.a, c.b)
		if math.IsInf(c.want, -1) {
			if !math.IsInf(got, -1) {
				t.Errorf("logAddExp(%v,%v) = %v", c.a, c.b, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("logAddExp(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDenomTrackerIntervalContainsExact(t *testing.T) {
	// Queueing node bounds and replacing them with exact members must always
	// keep the certified interval around the true denominator.
	rng := rand.New(rand.NewSource(42))
	var d denomTracker
	type nodeSim struct {
		s      suffix    // a block of one: the node's n·ˇN and n·ˆN
		values []float64 // exact member log densities within [floor, hull]
	}
	var pending []nodeSim
	trueDenom := math.Inf(-1)
	for i := 0; i < 200; i++ {
		floor := rng.NormFloat64() * 10
		width := rng.Float64() * 5
		n := rng.Intn(5) + 1
		hull := floor + width
		sim := nodeSim{
			s: suffix{
				floor: expSum{floor + math.Log(float64(n)), 1},
				hull:  expSum{hull + math.Log(float64(n)), 1},
			},
		}
		for j := 0; j < n; j++ {
			v := floor + rng.Float64()*width
			sim.values = append(sim.values, v)
			trueDenom = logAddExp(trueDenom, v)
		}
		pending = append(pending, sim)
		d.enter(sim.s)
	}
	check := func(step int) {
		lo, hi := d.fold().logLow, d.fold().logHigh
		if trueDenom < lo-1e-9 || trueDenom > hi+1e-9 {
			t.Fatalf("step %d: true denominator %v outside [%v,%v]", step, trueDenom, lo, hi)
		}
	}
	check(-1)
	for i, sim := range pending {
		d.advance(sim.s, suffix{})
		for _, v := range sim.values {
			d.addExact(v)
		}
		check(i)
	}
	// Fully drained: the interval must collapse onto the exact value.
	if b := d.fold(); math.Abs(b.logLow-trueDenom) > 1e-6 || math.Abs(b.logHigh-trueDenom) > 1e-6 {
		t.Errorf("drained interval [%v,%v] should equal %v", b.logLow, b.logHigh, trueDenom)
	}
}

func TestProbIntervalClamping(t *testing.T) {
	var d denomTracker
	// Empty tracker: denominator unknown (log 0) → interval must be [?,1]
	// without NaN leakage.
	lo, hi := query.ProbInterval(-3, d.fold().logLow, d.fold().logHigh)
	if math.IsNaN(lo) || math.IsNaN(hi) || hi > 1 || lo < 0 {
		t.Errorf("interval [%v,%v] malformed", lo, hi)
	}
	d.addExact(math.Log(0.5))
	lo, hi = query.ProbInterval(math.Log(0.25), d.fold().logLow, d.fold().logHigh)
	if math.Abs(lo-0.5) > 1e-12 || math.Abs(hi-0.5) > 1e-12 {
		t.Errorf("exact interval = [%v,%v], want 0.5", lo, hi)
	}
}
