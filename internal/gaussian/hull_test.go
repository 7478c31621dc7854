package gaussian

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// boxSample normalizes arbitrary quick-generated floats into a plausible
// parameter rectangle plus an evaluation point.
func boxSample(a, b, c, d, e float64) (mu, sigma Interval, x float64, ok bool) {
	norm := func(v, lo, hi float64) (float64, bool) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, false
		}
		frac := math.Abs(v) - math.Floor(math.Abs(v)) // in [0,1)
		return lo + frac*(hi-lo), true
	}
	m1, ok1 := norm(a, -50, 50)
	m2, ok2 := norm(b, 0, 20)
	s1, ok3 := norm(c, 1e-3, 5)
	s2, ok4 := norm(d, 0, 5)
	xx, ok5 := norm(e, -80, 80)
	if !(ok1 && ok2 && ok3 && ok4 && ok5) {
		return Interval{}, Interval{}, 0, false
	}
	return Interval{Lo: m1, Hi: m1 + m2}, Interval{Lo: s1, Hi: s1 + s2}, xx, true
}

func TestHullConservativenessProperty(t *testing.T) {
	// For any parameter box and any x, the hull dominates every member
	// Gaussian and the floor is dominated by it.
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(42))}
	prop := func(a, b, c, d, e float64, fm, fs float64) bool {
		mu, sigma, x, ok := boxSample(a, b, c, d, e)
		if !ok {
			return true
		}
		// Pick a member Gaussian inside the box.
		fm = math.Abs(fm) - math.Floor(math.Abs(fm))
		fs = math.Abs(fs) - math.Floor(math.Abs(fs))
		if math.IsNaN(fm) || math.IsNaN(fs) {
			return true
		}
		m := mu.Lo + fm*mu.Width()
		s := sigma.Lo + fs*sigma.Width()
		lp := LogPDF(m, s, x)
		up := LogHull(mu, sigma, x)
		lo := LogFloor(mu, sigma, x)
		const slack = 1e-9 // float roundoff tolerance
		return up >= lp-slack && lo <= lp+slack
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestHullIsTightOnGrid(t *testing.T) {
	// The hull must be attained (up to discretization) by some member of the
	// box: max over a dense (μ,σ) grid should approach the hull from below.
	mu := Interval{Lo: 2, Hi: 5}
	sigma := Interval{Lo: 0.5, Hi: 2}
	for _, x := range []float64{-3, 0.2, 1.4, 2, 3.3, 5, 5.8, 6.9, 8.5, 20} {
		best := math.Inf(-1)
		for i := 0; i <= 300; i++ {
			m := mu.Lo + mu.Width()*float64(i)/300
			for j := 0; j <= 300; j++ {
				s := sigma.Lo + sigma.Width()*float64(j)/300
				if v := PDF(m, s, x); v > best {
					best = v
				}
			}
		}
		hull := Hull(mu, sigma, x)
		if hull < best-1e-12 {
			t.Errorf("x=%v: hull %v below grid max %v", x, hull, best)
		}
		if hull > best*1.02+1e-12 {
			t.Errorf("x=%v: hull %v not tight vs grid max %v", x, hull, best)
		}
	}
}

func TestFloorIsTightOnGrid(t *testing.T) {
	mu := Interval{Lo: -1, Hi: 1}
	sigma := Interval{Lo: 0.3, Hi: 1.5}
	for _, x := range []float64{-4, -1, 0, 0.7, 1, 2, 6} {
		worst := math.Inf(1)
		for i := 0; i <= 200; i++ {
			m := mu.Lo + mu.Width()*float64(i)/200
			for j := 0; j <= 200; j++ {
				s := sigma.Lo + sigma.Width()*float64(j)/200
				if v := PDF(m, s, x); v < worst {
					worst = v
				}
			}
		}
		floor := Floor(mu, sigma, x)
		if floor > worst+1e-12 {
			t.Errorf("x=%v: floor %v above grid min %v", x, floor, worst)
		}
		if floor < worst*0.98-1e-12 {
			t.Errorf("x=%v: floor %v not tight vs grid min %v", x, floor, worst)
		}
	}
}

func TestHullSectorBoundaryContinuity(t *testing.T) {
	// ˆN is continuous; check values just left/right of every sector cut.
	mu := Interval{Lo: 1, Hi: 4}
	sigma := Interval{Lo: 0.5, Hi: 2}
	cuts := []float64{
		mu.Lo - sigma.Hi, mu.Lo - sigma.Lo, mu.Lo,
		mu.Hi, mu.Hi + sigma.Lo, mu.Hi + sigma.Hi,
	}
	const eps = 1e-9
	for _, c := range cuts {
		l := Hull(mu, sigma, c-eps)
		r := Hull(mu, sigma, c+eps)
		if !almostEqual(l, r, 1e-6) {
			t.Errorf("hull discontinuous at %v: %v vs %v", c, l, r)
		}
	}
}

func TestHullDegenerateBox(t *testing.T) {
	// A point box (single Gaussian) must make hull == floor == pdf.
	mu := Interval{Lo: 3, Hi: 3}
	sigma := Interval{Lo: 0.7, Hi: 0.7}
	for _, x := range []float64{-1, 2.5, 3, 3.7, 9} {
		p := PDF(3, 0.7, x)
		if h := Hull(mu, sigma, x); !almostEqual(h, p, 1e-12) {
			t.Errorf("hull(point box, %v) = %v, want %v", x, h, p)
		}
		if f := Floor(mu, sigma, x); !almostEqual(f, p, 1e-12) {
			t.Errorf("floor(point box, %v) = %v, want %v", x, f, p)
		}
	}
}

func TestHullPlateauValue(t *testing.T) {
	mu := Interval{Lo: -2, Hi: 2}
	sigma := Interval{Lo: 0.25, Hi: 1}
	want := InvSqrt2Pi / 0.25
	for _, x := range []float64{-2, -1, 0, 1.99, 2} {
		if got := Hull(mu, sigma, x); !almostEqual(got, want, 1e-12) {
			t.Errorf("plateau at %v: got %v, want %v", x, got, want)
		}
	}
}

func TestHullIntegralClosedFormMatchesNumeric(t *testing.T) {
	boxes := []struct{ mu, sigma Interval }{
		{Interval{0, 1}, Interval{0.5, 1}},
		{Interval{-3, 7}, Interval{0.1, 4}},
		{Interval{2, 2}, Interval{1, 1}},
		{Interval{0, 0.001}, Interval{0.2, 0.2001}},
	}
	for _, b := range boxes {
		// Numeric trapezoid over a wide-enough support.
		lo := b.mu.Lo - b.sigma.Hi - 12
		hi := b.mu.Hi + b.sigma.Hi + 12
		n := 200000
		h := (hi - lo) / float64(n)
		sum := 0.0
		for i := 0; i <= n; i++ {
			x := lo + float64(i)*h
			w := 1.0
			if i == 0 || i == n {
				w = 0.5
			}
			sum += w * Hull(b.mu, b.sigma, x)
		}
		sum *= h
		want := HullIntegral(b.mu, b.sigma)
		if !almostEqual(sum, want, 1e-3) {
			t.Errorf("box %+v: numeric %v vs closed form %v", b, sum, want)
		}
	}
}

func TestHullIntegralAtLeastOne(t *testing.T) {
	prop := func(a, b, c, d float64) bool {
		mu, sigma, _, ok := boxSample(a, b, c, d, 0)
		if !ok {
			return true
		}
		return HullIntegral(mu, sigma) >= 1-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestHullShiftedByQueryUncertainty(t *testing.T) {
	// §5.2: ˆN over a node for a probabilistic query (μq, σq) equals the hull
	// with the σ interval shifted by σq, evaluated at μq. Verify dominance
	// over the joint density of every member for both combiners.
	mu := Interval{Lo: 1, Hi: 2}
	sigma := Interval{Lo: 0.2, Hi: 0.8}
	rng := rand.New(rand.NewSource(3))
	for _, comb := range []Combiner{CombineAdditive, CombineConvolution} {
		for trial := 0; trial < 500; trial++ {
			muQ := rng.Float64()*8 - 3
			sigmaQ := rng.Float64()*2 + 0.01
			shifted := comb.CombineInterval(sigma, sigmaQ)
			bound := LogHull(mu, shifted, muQ)
			m := mu.Lo + rng.Float64()*mu.Width()
			s := sigma.Lo + rng.Float64()*sigma.Width()
			joint := comb.JointLogDensity(m, s, muQ, sigmaQ)
			if joint > bound+1e-9 {
				t.Fatalf("%v: member joint %v exceeds node bound %v (μq=%v σq=%v)",
					comb, joint, bound, muQ, sigmaQ)
			}
			lower := LogFloor(mu, shifted, muQ)
			if joint < lower-1e-9 {
				t.Fatalf("%v: member joint %v below node floor %v", comb, joint, lower)
			}
		}
	}
}
