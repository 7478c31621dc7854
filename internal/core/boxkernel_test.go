package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

var bothCombiners = []gaussian.Combiner{gaussian.CombineAdditive, gaussian.CombineConvolution}

func randBoxQuery(rng *rand.Rand, dim int) (ParamBox, pfv.Vector) {
	b := NewParamBox(dim)
	mean := make([]float64, dim)
	sigma := make([]float64, dim)
	for i := 0; i < dim; i++ {
		lo := rng.NormFloat64() * 5
		b.Mu[i] = gaussian.Interval{Lo: lo, Hi: lo + rng.Float64()*3}
		sLo := rng.Float64()*1.5 + 0.01
		b.Sigma[i] = gaussian.Interval{Lo: sLo, Hi: sLo + rng.Float64()}
		mean[i] = rng.NormFloat64() * 6
		sigma[i] = rng.Float64()*1.5 + 0.01
	}
	return b, pfv.MustNew(0, mean, sigma)
}

// columnsOfBoxes packs boxes the way persistNode packs a node's child boxes.
func columnsOfBoxes(boxes []ParamBox) pfv.Boxes {
	entries := make([]childEntry, len(boxes))
	for j, b := range boxes {
		entries[j].box = b
	}
	return boxColumnsOf(entries, boxes[0].Dim())
}

// kernelBounds runs the batch kernel over the boxes, unscreened.
func kernelBounds(comb gaussian.Combiner, q pfv.Vector, boxes ...ParamBox) (hulls, floors []float64) {
	cols := columnsOfBoxes(boxes)
	n := len(boxes)
	hulls, floors = make([]float64, n), make([]float64, n)
	cols.LogBounds(comb, q, math.Inf(1), hulls, floors, make([]float64, 2*n))
	return hulls, floors
}

// scalarBounds is the scalar reference of the batch kernel: one ParamBox,
// dimension by dimension through gaussian.HullTerm and FloorTerm, in the
// kernel's product form and accumulation order — so the kernel must
// reproduce it bit for bit. fellBack reports a σ-term product that left the
// float64 range and was redone as a sum of logarithms.
func scalarBounds(b ParamBox, comb gaussian.Combiner, q pfv.Vector) (hull, floor float64, fellBack bool) {
	hProd, hSumZ, fProd, fSumZ := 1.0, 0.0, 1.0, 0.0
	hSum, fSum := 0.0, 0.0
	for i := range b.Mu {
		cs := comb.CombineInterval(b.Sigma[i], q.Sigma[i])
		s, z, sloped := gaussian.HullTerm(b.Mu[i], cs, q.Mean[i])
		hProd *= s
		hSum += math.Log(s)
		hSumZ += z * z
		if sloped {
			hSumZ++
		}
		fs, fz := gaussian.FloorTerm(b.Mu[i], cs, q.Mean[i])
		fProd *= fs
		fSum += math.Log(fs)
		fSumZ += fz * fz
	}
	hLn, fLn := math.Log(hProd), math.Log(fProd)
	if math.IsInf(hLn, 0) {
		hLn, fellBack = hSum, true
	}
	if math.IsInf(fLn, 0) {
		fLn, fellBack = fSum, true
	}
	base := -0.5 * float64(len(b.Mu)) * gaussian.Ln2Pi
	return base - hLn - 0.5*hSumZ, base - fLn - 0.5*fSumZ, fellBack
}

// sameBits is bit equality, with every NaN equal to every other.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkKernelAgainstScalar runs the kernel over the boxes in one batch (and
// hull-only, as ranked traversals do) and compares every entry with the
// scalar reference. It returns how many entries took the fallback.
func checkKernelAgainstScalar(t *testing.T, comb gaussian.Combiner, q pfv.Vector, boxes ...ParamBox) (fallbacks int) {
	t.Helper()
	return checkKernelEntry(t, comb, q, -1, boxes)
}

// checkKernelEntry is checkKernelAgainstScalar for entry at alone, or for
// every entry when at is −1.
func checkKernelEntry(t *testing.T, comb gaussian.Combiner, q pfv.Vector, at int, boxes []ParamBox) (fallbacks int) {
	t.Helper()
	cols := columnsOfBoxes(boxes)
	n := len(boxes)
	hulls, floors, hullOnly, prods := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, 2*n)
	cols.LogBounds(comb, q, math.Inf(1), hulls, floors, prods)
	cols.LogBounds(comb, q, math.Inf(1), hullOnly, nil, prods)
	for j, b := range boxes {
		if at >= 0 && j != at {
			continue
		}
		wantHull, wantFloor, fellBack := scalarBounds(b, comb, q)
		if !sameBits(hulls[j], wantHull) || !sameBits(floors[j], wantFloor) {
			t.Fatalf("%v entry %d of %d (dim %d): kernel (%v, %v), scalar reference (%v, %v)\nbox %+v\nquery %+v",
				comb, j, len(boxes), b.Dim(), hulls[j], floors[j], wantHull, wantFloor, b, q)
		}
		if !sameBits(hullOnly[j], wantHull) {
			t.Fatalf("%v entry %d: hull-only kernel %v, scalar reference %v", comb, j, hullOnly[j], wantHull)
		}
		if fellBack {
			fallbacks++
		}
	}
	return fallbacks
}

// refHullFloor recomputes the box bounds with one logarithm per dimension,
// the textbook form the product-form kernel must reproduce up to
// product-vs-sum rounding.
func refHullFloor(b ParamBox, comb gaussian.Combiner, q pfv.Vector) (hull, floor float64) {
	d := len(b.Mu)
	hull = -0.5 * float64(d) * gaussian.Ln2Pi
	floor = hull
	for i := 0; i < d; i++ {
		cs := comb.CombineInterval(b.Sigma[i], q.Sigma[i])
		s, z, sloped := gaussian.HullTerm(b.Mu[i], cs, q.Mean[i])
		hull -= math.Log(s) + 0.5*z*z
		if sloped {
			hull -= 0.5
		}
		fs, fz := gaussian.FloorTerm(b.Mu[i], cs, q.Mean[i])
		floor -= math.Log(fs) + 0.5*fz*fz
	}
	return hull, floor
}

// TestBoxKernelsMatchGaussianTerms cross-checks the batch kernel against the
// gaussian.HullTerm/FloorTerm decompositions: to tight relative tolerance
// against the one-log-per-dimension form, and bit for bit against the scalar
// product form, whatever the batch an entry sits in.
func TestBoxKernelsMatchGaussianTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const relTol = 1e-9
	close := func(a, b float64) bool {
		if a == b {
			return true
		}
		scale := math.Max(math.Abs(a), math.Abs(b))
		return math.Abs(a-b) <= relTol*math.Max(scale, 1)
	}
	for _, comb := range bothCombiners {
		for trial := 0; trial < 4000; trial++ {
			dim := rng.Intn(6) + 1
			_, q := randBoxQuery(rng, dim)
			boxes := make([]ParamBox, rng.Intn(9)+1)
			for j := range boxes {
				boxes[j], _ = randBoxQuery(rng, dim)
			}
			checkKernelAgainstScalar(t, comb, q, boxes...)
			hulls, floors := kernelBounds(comb, q, boxes...)
			for j, b := range boxes {
				wantHull, wantFloor := refHullFloor(b, comb, q)
				if !close(hulls[j], wantHull) || !close(floors[j], wantFloor) {
					t.Fatalf("%v trial %d: kernel (%v, %v), per-dimension reference (%v, %v)",
						comb, trial, hulls[j], floors[j], wantHull, wantFloor)
				}
				if floors[j] > hulls[j] {
					t.Fatalf("%v trial %d: floor %v above hull %v", comb, trial, floors[j], hulls[j])
				}
			}
		}
	}
}

// TestLogHullAtScreenedSound pins the two sides of the screened child
// evaluation: when the screen keeps a child, its hull is bit-identical to
// the unscreened bound; when it drops one (hull −Inf) under
// zLim = 2·(hullCut − bound), the child's true hull provably cannot beat
// the admission bound.
func TestLogHullAtScreenedSound(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	got, prods := make([]float64, 1), make([]float64, 2)
	for _, comb := range bothCombiners {
		for trial := 0; trial < 20000; trial++ {
			dim := rng.Intn(6) + 1
			b, q := randBoxQuery(rng, dim)
			hulls, _ := kernelBounds(comb, q, b)
			hull := hulls[0]
			cols := columnsOfBoxes([]ParamBox{b})

			// hullCut exactly as newTraversal computes it.
			prodQS := 1.0
			for _, s := range q.Sigma {
				prodQS *= s
			}
			hullCut := -0.5*float64(dim)*gaussian.Ln2Pi - math.Log(prodQS)
			// Bounds straddling the true hull: below it (must keep),
			// above it (may drop, and then the drop must be justified).
			for _, bound := range []float64{hull - 1e-6, hull - 2, hull + 1e-6, hull + 2, hullCut} {
				cols.LogBounds(comb, q, 2*(hullCut-bound), got, nil, prods)
				if !math.IsInf(got[0], -1) {
					if !sameBits(got[0], hull) {
						t.Fatalf("%v trial %d: screened hull %v != unscreened %v", comb, trial, got[0], hull)
					}
				} else if hull > bound {
					t.Fatalf("%v trial %d: screen dropped a child with hull %v above bound %v (hullCut %v)",
						comb, trial, hull, bound, hullCut)
				}
			}
		}
	}
}

// extremeBoxQuery draws a box whose σ intervals span up to 24 orders of
// magnitude (1e-12 … 1e12 inside one box), some dimensions degenerate
// (lo == hi), and a query that in some dimensions sits exactly on a sector
// border: on μ̌, on μ̂, or at distance σ̌⊕σq or σ̂⊕σq from the μ interval.
func extremeBoxQuery(rng *rand.Rand, comb gaussian.Combiner, dim int) (ParamBox, pfv.Vector) {
	b := NewParamBox(dim)
	mean := make([]float64, dim)
	sigma := make([]float64, dim)
	logUniform := func() float64 { return math.Pow(10, rng.Float64()*24-12) }
	for i := 0; i < dim; i++ {
		lo := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		b.Mu[i] = gaussian.Interval{Lo: lo, Hi: lo + logUniform()*float64(rng.Intn(2))}
		s1, s2 := logUniform(), logUniform()
		if rng.Intn(4) == 0 {
			s2 = s1
		}
		b.Sigma[i] = gaussian.Interval{Lo: math.Min(s1, s2), Hi: math.Max(s1, s2)}
		sigma[i] = logUniform()
		cs := comb.CombineInterval(b.Sigma[i], sigma[i])
		switch rng.Intn(8) {
		case 0:
			mean[i] = b.Mu[i].Lo
		case 1:
			mean[i] = b.Mu[i].Hi
		case 2:
			mean[i] = b.Mu[i].Lo - cs.Lo
		case 3:
			mean[i] = b.Mu[i].Lo - cs.Hi
		case 4:
			mean[i] = b.Mu[i].Hi + cs.Lo
		case 5:
			mean[i] = b.Mu[i].Hi + cs.Hi
		default:
			mean[i] = lo + rng.NormFloat64()*logUniform()
		}
	}
	return b, pfv.MustNew(0, mean, sigma)
}

// batchSlot places a probed entry at position at of a batch of n.
type batchSlot struct{ n, at int }

// batchSlots lists every position of batches of 1…9 and 48 entries: the
// vector bodies run blocks of four and leave the rest to a Go tail, so these
// put a probed entry on every lane of a block, in the tail, and at both ends
// of a full leaf-sized batch.
func batchSlots() []batchSlot {
	var slots []batchSlot
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 48} {
		for at := 0; at < n; at++ {
			slots = append(slots, batchSlot{n, at})
		}
	}
	return slots
}

// TestBoundsKernelMatchesScalarBitForBit is the kernel's property test: for
// both combiners, every dimensionality from 1 to 128, σ from 1e-12 to 1e12
// inside one box, degenerate boxes and queries exactly on the sector
// borders, every entry of a batch equals the scalar ParamBox reference bit
// for bit — including the entries whose σ-term product leaves the float64
// range, which must take the per-entry fallback.
func TestBoundsKernelMatchesScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	slots := batchSlots()
	for _, comb := range bothCombiners {
		fallbacks, onBorder := 0, 0
		for dim := 1; dim <= 128; dim++ {
			others := make([]ParamBox, 48)
			var lastQ pfv.Vector
			for j := range others {
				others[j], lastQ = extremeBoxQuery(rng, comb, dim)
			}
			// Every filler once against the reference, on the last one's borders.
			fallbacks += checkKernelAgainstScalar(t, comb, lastQ, others...)
			for trial := 0; trial < 40; trial++ {
				slot := slots[(40*dim+trial)%len(slots)]
				// The probed box shares the query's borders.
				probe, q := extremeBoxQuery(rng, comb, dim)
				boxes := append([]ParamBox(nil), others[:slot.n]...)
				boxes[slot.at] = probe
				for i := 0; i < dim; i++ {
					cs := comb.CombineInterval(probe.Sigma[i], q.Sigma[i])
					if d := probe.Mu[i].Lo - q.Mean[i]; d == cs.Lo || d == cs.Hi {
						onBorder++
					}
					if d := q.Mean[i] - probe.Mu[i].Hi; d == cs.Lo || d == cs.Hi {
						onBorder++
					}
				}
				fallbacks += checkKernelEntry(t, comb, q, slot.at, boxes)
			}
		}
		if fallbacks == 0 || onBorder == 0 {
			t.Errorf("%v: %d fallback entries, %d queries exactly on a σ border — the cases are not exercised", comb, fallbacks, onBorder)
		}
	}

	// Hand-built borders in exactly representable numbers: d == σ̌⊕σq and
	// d == σ̂⊕σq on both sides, for both combiners (3-4-5 and 5-12-13).
	box := ParamBox{
		Mu:    []gaussian.Interval{{Lo: 2, Hi: 4}},
		Sigma: []gaussian.Interval{{Lo: 3, Hi: 5}},
	}
	for _, c := range []struct {
		comb gaussian.Combiner
		qs   float64
		d    []float64
	}{
		{gaussian.CombineAdditive, 0.25, []float64{3.25, 5.25}},
		{gaussian.CombineConvolution, 4, []float64{5}},
		{gaussian.CombineConvolution, 12, []float64{13}},
	} {
		for _, d := range c.d {
			for _, x := range []float64{2 - d, 4 + d, 2, 4} {
				checkKernelAgainstScalar(t, c.comb, pfv.MustNew(0, []float64{x}, []float64{c.qs}), box)
			}
		}
	}
}

// TestBoundsKernelFallback pins the overflow path on its own: σ terms whose
// product over 128 dimensions leaves the float64 range in either direction
// still yield finite bounds equal to the scalar reference's sum of
// logarithms, next to an entry of the same batch that needs no fallback.
func TestBoundsKernelFallback(t *testing.T) {
	const dim = 128
	mk := func(sigma float64) ParamBox {
		b := NewParamBox(dim)
		for i := range b.Mu {
			b.Mu[i] = gaussian.Interval{Lo: -1, Hi: 1}
			b.Sigma[i] = gaussian.Interval{Lo: sigma, Hi: 2 * sigma}
		}
		return b
	}
	mean, sigma := make([]float64, dim), make([]float64, dim)
	for i := range sigma {
		mean[i], sigma[i] = 0.5, 1e-9
	}
	q := pfv.MustNew(0, mean, sigma)
	for _, comb := range bothCombiners {
		boxes := []ParamBox{mk(1e-4), mk(1), mk(1e4)}
		if got := checkKernelAgainstScalar(t, comb, q, boxes...); got != 2 {
			t.Errorf("%v: %d entries took the fallback, want 2 (the 1e-4 and the 1e4 box)", comb, got)
		}
		hulls, floors := kernelBounds(comb, q, boxes...)
		for j := range boxes {
			if math.IsInf(hulls[j], 0) || math.IsNaN(hulls[j]) || math.IsInf(floors[j], 0) || math.IsNaN(floors[j]) {
				t.Errorf("%v entry %d: bounds (%v, %v) not finite", comb, j, hulls[j], floors[j])
			}
		}
	}
}

// FuzzBoundsKernel feeds the kernel one raw box/query dimension, repeated
// over 1…128 dimensions (so products leave the float64 range) and placed at
// every position of batches of 1…9 and 48 boxes, and demands the scalar
// reference's bits.
func FuzzBoundsKernel(f *testing.F) {
	// μ̌, μ̂, σ̌, σ̂, x, σq, dimensions.
	f.Add(0.0, 1.0, 0.5, 2.0, 0.5, 0.1, uint8(10))              // inside the μ interval
	f.Add(2.0, 4.0, 3.0, 5.0, -1.25, 0.25, uint8(3))            // d == σ̌+σq
	f.Add(2.0, 4.0, 3.0, 5.0, 9.25, 0.25, uint8(3))             // d == σ̂+σq
	f.Add(2.0, 4.0, 3.0, 5.0, -3.0, 4.0, uint8(1))              // d == hypot(σ̌, σq)
	f.Add(2.0, 4.0, 3.0, 5.0, 2.0, 4.0, uint8(7))               // on μ̌
	f.Add(2.0, 4.0, 3.0, 5.0, 4.0, 4.0, uint8(7))               // on μ̂
	f.Add(1.0, 1.0, 0.5, 0.5, 3.0, 0.5, uint8(27))              // degenerate box
	f.Add(-1.0, 1.0, 1e-12, 1e12, 0.5, 1e-9, uint8(127))        // 24 orders of σ
	f.Add(-1.0, 1.0, 1e4, 2e4, 0.5, 1e-9, uint8(127))           // product overflows
	f.Add(-1.0, 1.0, 1e-4, 2e-4, 0.5, 1e-9, uint8(127))         // product underflows
	f.Add(-1e300, 1e300, 1e-300, 1e300, 1e300, 1e300, uint8(2)) // range limits
	f.Fuzz(func(t *testing.T, muLo, muHi, sgLo, sgHi, x, qs float64, dimRaw uint8) {
		for _, v := range []float64{muLo, muHi, sgLo, sgHi, x, qs} {
			if math.IsNaN(v) || math.Abs(v) > 1e300 {
				return
			}
		}
		if !(muLo <= muHi && 0 < sgLo && sgLo <= sgHi && 0 < qs) {
			return
		}
		dim := int(dimRaw%128) + 1
		b := NewParamBox(dim)
		mean, sigma := make([]float64, dim), make([]float64, dim)
		for i := 0; i < dim; i++ {
			b.Mu[i] = gaussian.Interval{Lo: muLo, Hi: muHi}
			b.Sigma[i] = gaussian.Interval{Lo: sgLo, Hi: sgHi}
			mean[i], sigma[i] = x, qs
		}
		q := pfv.Vector{Mean: mean, Sigma: sigma}
		rng := rand.New(rand.NewSource(int64(dim)))
		others := make([]ParamBox, 48)
		for j := range others {
			others[j], _ = randBoxQuery(rng, dim)
		}
		for _, slot := range batchSlots() {
			boxes := append(append(append([]ParamBox(nil), others[:slot.at]...), b), others[slot.at+1:slot.n]...)
			at := slot.at
			if at == 0 {
				at = -1 // and every filler, once per batch size
			}
			for _, comb := range bothCombiners {
				checkKernelEntry(t, comb, q, at, boxes)
			}
		}
	})
}
