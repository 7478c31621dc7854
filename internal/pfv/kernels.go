package pfv

import (
	"math"
	"math/bits"

	"github.com/gauss-tree/gausstree/internal/gaussian"
)

// scoreStep adds a dimension's terms to ScoreColumns' sums: with vec and the
// additive combiner, blocks of four run the AVX2 body, the rest the Go body.
func scoreStep(vec bool, comb gaussian.Combiner, qm, qs float64, m, s, prod, sumZ []float64) {
	n := len(sumZ)
	m, s, prod = m[:n], s[:n], prod[:n]
	j0 := 0
	if n4 := n &^ 3; vec && comb == gaussian.CombineAdditive && n4 > 0 {
		scoreBlocks(qm, qs, &m[0], &s[0], &prod[0], &sumZ[0], n4)
		j0 = n4
	}
	for j := j0; j < n; j++ {
		cs := comb.Combine(s[j], qs)
		z := (qm - m[j]) / cs
		prod[j] *= cs
		sumZ[j] += z * z
	}
}

// BoundsStep adds one dimension's σ terms (to hProd, fProd) and z² terms (to
// hull, floor) of Lemma 2's hull and, unless floor is nil, Lemma 3's floor to
// boxes [muLo[j], muHi[j]] × [sgLo[j], sgHi[j]] for the query's x and σq = qs,
// bit for bit as gaussian.HullTerm and FloorTerm give them. The hull's seven
// sectors collapse into d = max(μ̌−x, x−μ̂, 0) and s = min(max(d, σ̌), σ̂) (the
// sloped ones as z = d/s = 1, their e^{−½}); the floor sits on the farther μ
// border, at σ̌ while the density still grows in σ over the whole interval,
// at σ̂ once it only falls, else at the lower corner (floorCorner).
func BoundsStep(c gaussian.Combiner, x, qs float64, muLo, muHi, sgLo, sgHi, hull, hProd, floor, fProd []float64) {
	boundsStep(hasAVX2, c, x, qs, muLo, muHi, sgLo, sgHi, hull, hProd, floor, fProd)
}

func boundsStep(vec bool, comb gaussian.Combiner, x, qs float64, muLo, muHi, sgLo, sgHi, hull, hProd, floor, fProd []float64) {
	n := len(hull)
	muLo, muHi, sgLo, sgHi, hProd = muLo[:n], muHi[:n], sgLo[:n], sgHi[:n], hProd[:n]
	if floor != nil {
		floor, fProd = floor[:n], fProd[:n]
	}
	j0 := 0
	if n4 := n &^ 3; vec && comb == gaussian.CombineAdditive && n4 > 0 {
		var fl, fp *float64
		if floor != nil {
			fl, fp = &floor[0], &fProd[0]
		}
		for j := 0; j < n4; j += 4 {
			var mask int
			j, mask = hullFloorBlocks(x, qs, &muLo[0], &muHi[0], &sgLo[0], &sgHi[0], &hull[0], &hProd[0], fl, fp, j, n4)
			for ; mask != 0; mask &= mask - 1 { // the lanes handed back
				k := j + bits.TrailingZeros(uint(mask))
				d := max(-(muLo[k] - x), -(x - muHi[k]))
				s := floorCorner(d, sgLo[k]+qs, sgHi[k]+qs)
				z := d / s
				fProd[k] *= s
				floor[k] += z * z
			}
		}
		j0 = n4
	}
	for j := j0; j < n; j++ {
		csLo, csHi := comb.Combine(sgLo[j], qs), comb.Combine(sgHi[j], qs)
		below, above := muLo[j]-x, x-muHi[j] // at most one is positive
		db := max(orderedBits(below), orderedBits(above), 0)
		sb := min(max(db, orderedBits(csLo)), orderedBits(csHi))
		d, s := math.Float64frombits(uint64(db)), math.Float64frombits(uint64(sb))
		z := d / s
		hProd[j] *= s
		hull[j] += z * z
		if floor == nil {
			continue
		}
		d = max(-below, -above)
		s = csLo
		if d < csHi {
			s = csHi
			if d > csLo {
				s = floorCorner(d, csLo, csHi)
			}
		}
		z = d / s
		fProd[j] *= s
		floor[j] += z * z
	}
}

// floorCorner returns the lower-density σ corner for csLo < d < csHi.
func floorCorner(d, csLo, csHi float64) float64 {
	za, zb := d/csLo, d/csHi
	if -math.Log(csLo)-0.5*za*za <= -math.Log(csHi)-0.5*zb*zb {
		return csLo
	}
	return csHi
}

// orderedBits returns x's bits as a signed integer: it grows with x ≥ +0 and
// is negative for every negative x, −0 included, so where a max or min of
// floats is known not to be negative, the integer one finds the same float.
func orderedBits(x float64) int64 { return int64(math.Float64bits(x)) }

// LogEach replaces every xs[j] by math.Log(xs[j]), bit for bit.
func LogEach(xs []float64) {
	if n4 := len(xs) &^ 3; hasAVX2 && n4 > 0 {
		logBlocks(&xs[0], n4)
		xs = xs[n4:]
	}
	for j, x := range xs {
		xs[j] = math.Log(x)
	}
}
