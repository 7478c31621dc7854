package pfv

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
)

// skipWithoutAVX2 skips a test of the AVX2 bodies on a CPU without them.
func skipWithoutAVX2(tb testing.TB) {
	tb.Helper()
	if !hasAVX2 {
		tb.Skip("no AVX2 on this CPU: the Go bodies are the only ones")
	}
}

// sameBitsOrNaN is bit equality, with every NaN equal to every other.
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestLogLanesMatchMathLog holds the 4-lane logarithm to math.Log bit for
// bit: random bit patterns (every sign, exponent and special value),
// subnormals, powers of two and the neighbours of √2/2 on both sides of the
// reduction's comparison, each at every lane position of a batch.
func TestLogLanesMatchMathLog(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(71))
	var xs []float64
	for i := 0; i < 200000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()&(1<<52-1))) // subnormal
	}
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		xs = append(xs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
		h := math.Ldexp(math.Sqrt2/2, e)
		for k := 0; k < 8; k++ {
			xs = append(xs, h)
			h = math.Nextafter(h, 0)
		}
		h = math.Ldexp(math.Sqrt2/2, e)
		for k := 0; k < 8; k++ {
			h = math.Nextafter(h, 2)
			xs = append(xs, h)
		}
	}
	xs = append(xs, 0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
		math.MaxFloat64, math.SmallestNonzeroFloat64)
	for shift := 0; shift < 4; shift++ {
		got := append([]float64(nil), xs[shift:]...)
		got = got[:len(got)&^3]
		logBlocks(&got[0], len(got))
		for j, x := range xs[shift : shift+len(got)] {
			if want := math.Log(x); !sameBitsOrNaN(got[j], want) {
				t.Fatalf("log(%x = %v) at position %d: %x (%v), math.Log %x (%v)",
					math.Float64bits(x), x, j, math.Float64bits(got[j]), got[j], math.Float64bits(want), want)
			}
		}
	}
}

// kernelCase is one fuzz input expanded into a batch: n entries of box
// bounds and vector parameters, and a query dimension (x, σq).
type kernelCase struct {
	x, qs                     float64
	muLo, muHi, sgLo, sgHi    []float64
	hull, hProd, floor, fProd []float64
}

// kernelBatch expands a fuzz input into a batch of n entries. Entry j's
// kind is data[j] mod 7, or drawn past the data: a random box, the fuzzed box
// itself, a box whose μ border is exactly σ̌+σq or σ̂+σq from x, a
// degenerate box at x (differences ±0), σ over 24 decades, or a distance
// strictly inside (σ̌+σq, σ̂+σq) — a lane handed back for Lemma 3's corner.
// The accumulators start from values a few dimensions of such terms leave,
// products past the float64 range included.
func kernelBatch(data []byte, n int, muLo, muHi, sgLo, sgHi, x, qs float64) kernelCase {
	seed := int64(len(data))
	if len(data) >= 8 {
		seed = int64(binary.LittleEndian.Uint64(data))
	}
	rng := rand.New(rand.NewSource(seed ^ int64(n)<<20))
	c := kernelCase{x: x, qs: qs}
	for _, p := range []*[]float64{&c.muLo, &c.muHi, &c.sgLo, &c.sgHi, &c.hull, &c.hProd, &c.floor, &c.fProd} {
		*p = make([]float64, n)
	}
	decade := func() float64 { return math.Pow(10, rng.Float64()*24-12) }
	for j := 0; j < n; j++ {
		kind := rng.Intn(7)
		if j < len(data) {
			kind = int(data[j]) % 7
		}
		lo, hi, sl, sh := muLo, muHi, sgLo, sgHi
		switch kind {
		case 0: // a box near the query, as in a tree: few lanes for floorCorner
			lo = x + rng.NormFloat64()*3
			hi = lo + rng.Float64()*2
			sl = rng.Float64() + 0.01
			sh = sl + rng.Float64()/8
		case 2, 3: // d == σ̌+σq or σ̂+σq, on either side
			sl = rng.Float64() + 0.01
			sh = sl + rng.Float64()*3
			d := sl + qs
			if kind == 3 {
				d = sh + qs
			}
			if rng.Intn(2) == 0 {
				lo = x + d
				hi = lo + rng.Float64()
			} else {
				hi = x - d
				lo = hi - rng.Float64()
			}
		case 4: // μ̌ = μ̂ = x: both differences ±0
			lo, hi = x, x
		case 5: // σ over 24 decades, μ anywhere in that range
			s1, s2 := decade(), decade()
			sl, sh = min(s1, s2), max(s1, s2)
			lo = x + rng.NormFloat64()*decade()
			hi = lo + decade()*float64(rng.Intn(2))
		case 6: // Lemma 3's corner lanes: d strictly inside (σ̌+σq, σ̂+σq)
			sl = rng.Float64() + 0.01
			sh = sl + 1 + rng.Float64()*4
			hi = x - (sl + qs) - rng.Float64()*(sh-sl)
			lo = hi - rng.Float64()
		}
		c.muLo[j], c.muHi[j], c.sgLo[j], c.sgHi[j] = lo, hi, sl, sh
		c.hull[j], c.floor[j] = rng.Float64()*10, rng.Float64()*10
		c.hProd[j], c.fProd[j] = decade(), decade()
		if rng.Intn(8) == 0 {
			c.hProd[j], c.fProd[j] = math.MaxFloat64/2, 1e-300
		}
	}
	return c
}

func (c kernelCase) clone() kernelCase {
	out := c
	for _, p := range []*[]float64{&out.muLo, &out.muHi, &out.sgLo, &out.sgHi, &out.hull, &out.hProd, &out.floor, &out.fProd} {
		*p = append([]float64(nil), (*p)...)
	}
	return out
}

func sameRuns(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for j := range want {
		if !sameBitsOrNaN(got[j], want[j]) {
			t.Fatalf("%s[%d] of %d: AVX2 %x (%v), Go %x (%v)", what, j, len(want),
				math.Float64bits(got[j]), got[j], math.Float64bits(want[j]), want[j])
		}
	}
}

// FuzzKernelLanes holds the AVX2 bodies to the Go bodies, calling both
// directly: the bound step (hull only and hull with floor), the score step
// and the logarithm of the products, on every length from 0 to 67, so that
// every entry kind the batch draws lands on every lane of a block and in the
// Go tail.
func FuzzKernelLanes(f *testing.F) {
	skipWithoutAVX2(f)
	// seed bytes, μ̌, μ̂, σ̌, σ̂, x, σq
	f.Add([]byte{1, 1, 1, 1, 1}, 0.0, 1.0, 0.5, 2.0, 0.5, 0.1)               // inside the μ interval
	f.Add([]byte{1, 1, 1, 1, 1}, 2.0, 4.0, 3.0, 5.0, -1.25, 0.25)            // d == σ̌+σq
	f.Add([]byte{1, 1, 1, 1, 1}, 2.0, 4.0, 3.0, 5.0, 9.25, 0.25)             // d == σ̂+σq
	f.Add([]byte{1, 1, 1, 1, 1}, 2.0, 4.0, 3.0, 5.0, -2.0, 0.25)             // Lemma 3 corner
	f.Add([]byte{1, 4, 1, 4, 1}, 2.0, 2.0, 3.0, 5.0, 2.0, 0.25)              // μ̌ = μ̂ = x
	f.Add([]byte{5, 5, 5, 5, 6, 6, 6, 6}, -1.0, 1.0, 1e-12, 1e12, 0.5, 1e-9) // 24 decades
	f.Add([]byte{0, 2, 3, 4, 5, 6, 1}, -1e300, 1e300, 1e-300, 1e300, 1e300, 1e300)
	f.Fuzz(func(t *testing.T, data []byte, muLo, muHi, sgLo, sgHi, x, qs float64) {
		for _, v := range []float64{muLo, muHi, sgLo, sgHi, x, qs} {
			if math.IsNaN(v) || math.Abs(v) > 1e300 {
				return
			}
		}
		if !(muLo <= muHi && 0 < sgLo && sgLo <= sgHi && 0 < qs) {
			return
		}
		for n := 0; n <= 67; n++ {
			in := kernelBatch(data, n, muLo, muHi, sgLo, sgHi, x, qs)
			a, g := in.clone(), in.clone()
			boundsStep(true, gaussian.CombineAdditive, x, qs, a.muLo, a.muHi, a.sgLo, a.sgHi, a.hull, a.hProd, a.floor, a.fProd)
			boundsStep(false, gaussian.CombineAdditive, x, qs, g.muLo, g.muHi, g.sgLo, g.sgHi, g.hull, g.hProd, g.floor, g.fProd)
			sameRuns(t, "hull", a.hull, g.hull)
			sameRuns(t, "hProd", a.hProd, g.hProd)
			sameRuns(t, "floor", a.floor, g.floor)
			sameRuns(t, "fProd", a.fProd, g.fProd)

			a, g = in.clone(), in.clone()
			boundsStep(true, gaussian.CombineAdditive, x, qs, a.muLo, a.muHi, a.sgLo, a.sgHi, a.hull, a.hProd, nil, nil)
			boundsStep(false, gaussian.CombineAdditive, x, qs, g.muLo, g.muHi, g.sgLo, g.sgHi, g.hull, g.hProd, nil, nil)
			sameRuns(t, "hull-only hull", a.hull, g.hull)
			sameRuns(t, "hull-only hProd", a.hProd, g.hProd)

			// The score step reads the box's μ̌ and σ̌ runs as a leaf's μ and σ.
			a, g = in.clone(), in.clone()
			scoreStep(true, gaussian.CombineAdditive, x, qs, a.muLo, a.sgLo, a.hProd, a.hull)
			scoreStep(false, gaussian.CombineAdditive, x, qs, g.muLo, g.sgLo, g.hProd, g.hull)
			sameRuns(t, "score sumZ", a.hull, g.hull)
			sameRuns(t, "score prod", a.hProd, g.hProd)

			if n4 := n &^ 3; n4 > 0 {
				logBlocks(&a.hProd[0], n4)
			}
			for j := range g.hProd {
				if g.hProd[j] = math.Log(g.hProd[j]); j >= n&^3 {
					a.hProd[j] = g.hProd[j]
				}
			}
			sameRuns(t, "log", a.hProd, g.hProd)
		}
	})
}

// BenchmarkColumnKernels times both bodies of each kernel in ns per entry,
// over a batch of 46 entries at the paper's d = 10 (DS2) and
// d = 27 (DS1): one step per dimension, then the logarithm pass.
func BenchmarkColumnKernels(b *testing.B) {
	const n = 46
	logEach := func(vec bool, xs []float64) {
		if vec {
			LogEach(xs) // runs the AVX2 body: vec is only set where it exists
			return
		}
		for j, x := range xs {
			xs[j] = math.Log(x)
		}
	}
	for _, dim := range []int{10, 27} {
		rng := rand.New(rand.NewSource(int64(dim)))
		cs := make([]kernelCase, dim)
		for i := range cs {
			// Kind 0 throughout: random boxes around the query, as in a tree.
			cs[i] = kernelBatch(make([]byte, n), n, 0, 1, 0.5, 2, rng.NormFloat64()*3, rng.Float64()+0.1)
		}
		hull, hProd, floor, fProd := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for _, vec := range []bool{false, true} {
			body := map[bool]string{false: "go", true: "avx2"}[vec]
			if vec && !hasAVX2 {
				continue
			}
			bench := func(kernel string, run func()) {
				b.Run(kernel+"/d="+strconv.Itoa(dim)+"/"+body, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
				})
			}
			bench("score", func() {
				for j := range hull {
					hull[j], hProd[j] = 0, 1
				}
				for _, c := range cs {
					scoreStep(vec, gaussian.CombineAdditive, c.x, c.qs, c.muLo, c.sgLo, hProd, hull)
				}
				logEach(vec, hProd)
			})
			bench("bounds", func() {
				for j := range hull {
					hull[j], hProd[j], floor[j], fProd[j] = 0, 1, 0, 1
				}
				for _, c := range cs {
					boundsStep(vec, gaussian.CombineAdditive, c.x, c.qs, c.muLo, c.muHi, c.sgLo, c.sgHi, hull, hProd, floor, fProd)
				}
				logEach(vec, hProd)
				logEach(vec, fProd)
			})
		}
	}
}
