package gaussian

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol || diff <= tol*scale
}

func TestPDFStandardNormal(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, InvSqrt2Pi},
		{1, 0.24197072451914337},
		{-1, 0.24197072451914337},
		{2, 0.05399096651318806},
		{3, 0.004431848411938008},
	}
	for _, c := range cases {
		got := PDF(0, 1, c.x)
		if !almostEqual(got, c.want, 1e-14) {
			t.Errorf("PDF(0,1,%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPDFScaling(t *testing.T) {
	// N(mu, sigma)(x) = N(0,1)((x-mu)/sigma) / sigma.
	for _, mu := range []float64{-3, 0, 1.5, 100} {
		for _, sigma := range []float64{0.1, 1, 2.5, 40} {
			for _, x := range []float64{-5, 0, 0.3, 7} {
				want := PDF(0, 1, (x-mu)/sigma) / sigma
				got := PDF(mu, sigma, x)
				if !almostEqual(got, want, 1e-12) {
					t.Fatalf("PDF(%v,%v,%v) = %v, want %v", mu, sigma, x, got, want)
				}
			}
		}
	}
}

func TestLogPDFMatchesPDF(t *testing.T) {
	const minNormal = 2.2250738585072014e-308
	for _, mu := range []float64{-2, 0, 3} {
		for _, sigma := range []float64{0.05, 1, 9} {
			for _, x := range []float64{-4, -0.1, 0, 2, 11} {
				p := PDF(mu, sigma, x)
				if p < minNormal {
					// math.Log is unreliable on subnormals; LogPDF is the
					// source of truth in the deep tail (see dedicated test).
					continue
				}
				want := math.Log(p)
				got := LogPDF(mu, sigma, x)
				if !almostEqual(got, want, 1e-12) {
					t.Fatalf("LogPDF(%v,%v,%v) = %v, want %v", mu, sigma, x, got, want)
				}
			}
		}
	}
}

func TestLogPDFExtremeTail(t *testing.T) {
	// 200 sigma out: linear-space PDF underflows to 0 but LogPDF stays exact.
	lp := LogPDF(0, 1, 200)
	want := -0.5*Ln2Pi - 0.5*200*200
	if !almostEqual(lp, want, 1e-12) {
		t.Errorf("LogPDF tail = %v, want %v", lp, want)
	}
	if PDF(0, 1, 200) != 0 {
		t.Errorf("PDF 200σ out should underflow to 0, got %v", PDF(0, 1, 200))
	}
}

func TestCDFKnownValues(t *testing.T) {
	cases := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
	}
	for _, c := range cases {
		if got := StdCDF(c.z); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("StdCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestStdQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.975, 0.999} {
		z := StdQuantile(p)
		if got := StdCDF(z); !almostEqual(got, p, 1e-10) {
			t.Errorf("StdCDF(StdQuantile(%v)) = %v", p, got)
		}
	}
	if z := StdQuantile(0.975); !almostEqual(z, 1.959963984540054, 1e-9) {
		t.Errorf("StdQuantile(0.975) = %v, want 1.95996...", z)
	}
}

func TestValidateSigma(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if err := ValidateSigma(bad); err == nil {
			t.Errorf("ValidateSigma(%v) should fail", bad)
		}
	}
	for _, good := range []float64{1e-300, 0.5, 1, 1e300} {
		if err := ValidateSigma(good); err != nil {
			t.Errorf("ValidateSigma(%v) = %v, want nil", good, err)
		}
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3}
	if iv.Width() != 2 {
		t.Errorf("Width = %v", iv.Width())
	}
	if !iv.Contains(1) || !iv.Contains(3) || !iv.Contains(2) {
		t.Error("Contains endpoints/midpoint failed")
	}
	if iv.Contains(0.999) || iv.Contains(3.001) {
		t.Error("Contains should reject outside points")
	}
	ext := iv.Extend(5)
	if ext.Hi != 5 || ext.Lo != 1 {
		t.Errorf("Extend(5) = %v", ext)
	}
	ext = iv.Extend(-2)
	if ext.Lo != -2 || ext.Hi != 3 {
		t.Errorf("Extend(-2) = %v", ext)
	}
	u := Interval{Lo: 2, Hi: 7}.Union(Interval{Lo: -1, Hi: 4})
	if u.Lo != -1 || u.Hi != 7 {
		t.Errorf("Union = %v", u)
	}
}

func TestCombinerRules(t *testing.T) {
	if got := CombineAdditive.Combine(3, 4); got != 7 {
		t.Errorf("additive: got %v, want 7", got)
	}
	if got := CombineConvolution.Combine(3, 4); !almostEqual(got, 5, 1e-15) {
		t.Errorf("convolution: got %v, want 5", got)
	}
	if CombineAdditive.String() != "additive" || CombineConvolution.String() != "convolution" {
		t.Error("combiner names wrong")
	}
	if Combiner(99).String() != "unknown" {
		t.Error("unknown combiner name wrong")
	}
	iv := CombineConvolution.CombineInterval(Interval{Lo: 3, Hi: 12}, 4)
	if !almostEqual(iv.Lo, 5, 1e-14) || !almostEqual(iv.Hi, math.Hypot(12, 4), 1e-14) {
		t.Errorf("CombineInterval = %v", iv)
	}
}

func TestJointLogDensitySymmetry(t *testing.T) {
	// Lemma 1: p(q|v) must equal p(v|q) for both combination rules.
	params := [][4]float64{
		{0, 1, 0.5, 2},
		{-3, 0.1, 4, 0.3},
		{10, 5, 10, 5},
		{1.5, 0.01, 1.6, 3},
	}
	for _, c := range []Combiner{CombineAdditive, CombineConvolution} {
		for _, p := range params {
			a := c.JointLogDensity(p[0], p[1], p[2], p[3])
			b := c.JointLogDensity(p[2], p[3], p[0], p[1])
			if !almostEqual(a, b, 1e-12) {
				t.Errorf("%v: p(q|v)=%v != p(v|q)=%v for %v", c, a, b, p)
			}
		}
	}
}

func TestJointLogDensityIsGaussianProductIntegral(t *testing.T) {
	// Numerically integrate N(μv,σv)(x)·N(μq,σq)(x) dx and compare with the
	// convolution rule (the mathematically exact form of Lemma 1).
	muV, sigmaV, muQ, sigmaQ := 1.0, 0.8, 2.5, 1.3
	lo, hi := -20.0, 25.0
	n := 400000
	h := (hi - lo) / float64(n)
	sum := 0.0
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*h
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		sum += w * PDF(muV, sigmaV, x) * PDF(muQ, sigmaQ, x)
	}
	sum *= h
	want := math.Exp(CombineConvolution.JointLogDensity(muV, sigmaV, muQ, sigmaQ))
	if !almostEqual(sum, want, 1e-6) {
		t.Errorf("numeric integral %v vs convolution joint %v", sum, want)
	}
}
