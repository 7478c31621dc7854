package gaussian

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogSumEmpty(t *testing.T) {
	var s LogSum
	if !math.IsInf(s.Log(), -1) {
		t.Errorf("empty LogSum.Log() = %v, want -Inf", s.Log())
	}
}

func TestLogSumSingle(t *testing.T) {
	var s LogSum
	s.Add(-3.5)
	if !almostEqual(s.Log(), -3.5, 1e-15) {
		t.Errorf("single term Log = %v", s.Log())
	}
}

func TestLogSumMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50) + 1
		xs := make([]float64, n)
		direct := 0.0
		var s LogSum
		for i := range xs {
			xs[i] = rng.Float64()*20 - 10
			direct += math.Exp(xs[i])
			s.Add(xs[i])
		}
		want := math.Log(direct)
		if !almostEqual(s.Log(), want, 1e-12) {
			t.Fatalf("LogSum=%v direct=%v", s.Log(), want)
		}
		if !almostEqual(LogSumExpSlice(xs), want, 1e-12) {
			t.Fatalf("LogSumExpSlice=%v direct=%v", LogSumExpSlice(xs), want)
		}
	}
}

func TestLogSumExtremeRange(t *testing.T) {
	// Terms spanning 2000 orders of magnitude must not over/underflow.
	var s LogSum
	s.Add(-4000)
	s.Add(600)
	s.Add(-100)
	want := 600.0 // exp(600) dominates utterly
	if !almostEqual(s.Log(), want, 1e-12) {
		t.Errorf("extreme-range Log = %v, want ~%v", s.Log(), want)
	}
}

func TestLogSumNegInfIgnored(t *testing.T) {
	var s LogSum
	s.Add(math.Inf(-1))
	if !math.IsInf(s.Log(), -1) {
		t.Error("-Inf should contribute nothing")
	}
	s.Add(1)
	s.Add(math.Inf(-1))
	if !almostEqual(s.Log(), 1, 1e-15) {
		t.Errorf("Log = %v, want 1", s.Log())
	}
}

func TestLogSumReset(t *testing.T) {
	var s LogSum
	s.Add(3)
	s.Reset()
	if !math.IsInf(s.Log(), -1) {
		t.Error("Reset did not clear accumulator")
	}
}

func TestNormalizeLogSumsToOne(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Mod(v, 300)) // keep exponents sane
		}
		if len(xs) == 0 {
			return true
		}
		ps := NormalizeLog(nil, xs)
		sum := 0.0
		for _, p := range ps {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeLogAllNegInf(t *testing.T) {
	xs := []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	ps := NormalizeLog(nil, xs)
	for _, p := range ps {
		if !almostEqual(p, 0.25, 1e-15) {
			t.Errorf("uniform fallback expected, got %v", ps)
		}
	}
}

func TestNormalizeLogReusesDst(t *testing.T) {
	dst := make([]float64, 8)
	xs := []float64{0, 0}
	out := NormalizeLog(dst, xs)
	if len(out) != 2 {
		t.Fatalf("len(out) = %d", len(out))
	}
	if &out[0] != &dst[0] {
		t.Error("dst with capacity should be reused")
	}
	if !almostEqual(out[0], 0.5, 1e-15) || !almostEqual(out[1], 0.5, 1e-15) {
		t.Errorf("out = %v", out)
	}
	if got := NormalizeLog(nil, nil); len(got) != 0 {
		t.Errorf("empty input should give empty output, got %v", got)
	}
}

func TestNormalizeLogPosteriorIntuition(t *testing.T) {
	// Paper §4 properties 2-4: widening uncertainty drives posteriors toward
	// uniform 1/n; disjoint steep Gaussians drive them toward 0/1.
	comb := CombineAdditive
	score := func(sigma float64) []float64 {
		// 4 database objects at means 0, 1, 5, 9; query at 0.9.
		out := make([]float64, 0, 4)
		for _, m := range []float64{0, 1, 5, 9} {
			out = append(out, comb.JointLogDensity(m, sigma, 0.9, sigma))
		}
		return out
	}
	sharp := NormalizeLog(nil, score(0.05))
	if sharp[1] < 0.999 {
		t.Errorf("sharp posterior for the matching object = %v, want ~1", sharp[1])
	}
	vague := NormalizeLog(nil, score(500))
	for i, p := range vague {
		if !almostEqual(p, 0.25, 1e-3) {
			t.Errorf("vague posterior[%d] = %v, want ~0.25", i, p)
		}
	}
}

// addUnskipped is LogSum.Add without the skip of far terms: one Exp per
// term, the reference the skipping Add must reproduce bit for bit.
func (s *LogSum) addUnskipped(logX float64) {
	if math.IsInf(logX, -1) {
		return
	}
	if s.n == 0 || logX > s.max {
		if s.n == 0 {
			s.sum = 1
		} else {
			s.sum = s.sum*math.Exp(s.max-logX) + 1
		}
		s.max = logX
	} else {
		s.sum += math.Exp(logX - s.max)
	}
	s.n++
}

// TestLogSumSkipIsBitIdentical holds Add to the unskipped loop over random
// sequences — far and near terms, rebases, terms at max − 40 and one ulp to
// either side, ±Inf and NaN — state by state and in Log's bits.
func TestLogSumSkipIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	skipped := 0
	for trial := 0; trial < 20000; trial++ {
		var got, want LogSum
		for i, n := 0, rng.Intn(60)+1; i < n; i++ {
			ref := want.max
			if want.n == 0 {
				ref = rng.NormFloat64() * 100
			}
			var x float64
			switch r := rng.Intn(20); {
			case r < 6: // far below: the skip
				x = ref - 40 - rng.ExpFloat64()*30
			case r < 10: // near: the Exp
				x = ref - rng.Float64()*40
			case r < 12: // above: a rebase
				x = ref + rng.ExpFloat64()*20
			case r == 12:
				x = ref - 40
			case r == 13:
				x = math.Nextafter(ref-40, math.Inf(1))
			case r == 14:
				x = math.Nextafter(ref-40, math.Inf(-1))
			case r == 15:
				x = ref - 41
			case r == 16:
				x = ref - 39
			case r == 17:
				x = math.Inf(-1)
			case r == 18:
				if rng.Intn(8) == 0 {
					x = math.Inf(1)
				} else {
					x = ref - 40 + rng.NormFloat64()*1e-13
				}
			default:
				if rng.Intn(8) == 0 {
					x = math.NaN()
				} else {
					x = ref - 40 - rng.Float64()*1e-12
				}
			}
			if want.n > 0 && x-want.max < -40 {
				skipped++
			}
			got.Add(x)
			want.addUnskipped(x)
			if !same(got.max, want.max) || !same(got.sum, want.sum) || got.n != want.n {
				t.Fatalf("trial %d term %d (%v): state (%v, %v, %d), unskipped (%v, %v, %d)",
					trial, i, x, got.max, got.sum, got.n, want.max, want.sum, want.n)
			}
		}
		if !same(got.Log(), want.Log()) {
			t.Fatalf("trial %d: Log %v, unskipped %v", trial, got.Log(), want.Log())
		}
	}
	if skipped == 0 {
		t.Fatal("no term took the skip")
	}
}
