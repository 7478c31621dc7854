package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// The scalar reference of the median-cut evaluator: the sort-based form the
// bulk loader and the online split ran before it — per axis one stable
// (key, index) sort of all entries and a row-wise bounding box of each half.

// refKey is entry i's sort key along an axis: the value itself for leaf
// vectors, the interval centre for inner entries.
func refKey(n *node, i, axis int) float64 {
	if n.leaf {
		if axis%2 == 1 {
			return n.vectors[i].Sigma[axis/2]
		}
		return n.vectors[i].Mean[axis/2]
	}
	iv := n.children[i].box.Mu[axis/2]
	if axis%2 == 1 {
		iv = n.children[i].box.Sigma[axis/2]
	}
	return (iv.Lo + iv.Hi) / 2
}

func refBoxOfEntries(n *node, idxs []int) ParamBox {
	var b ParamBox
	for k, i := range idxs {
		switch {
		case n.leaf && k == 0:
			b = BoxOf(n.vectors[i])
		case n.leaf:
			b.ExtendVector(n.vectors[i])
		case k == 0:
			b = n.children[i].box.Clone()
		default:
			b.ExtendBox(n.children[i].box)
		}
	}
	return b
}

// keyOrder fills order with the stable ascending order of keys: the index of
// the i-th smallest key at position i, equal keys in index order. The index
// tie-break makes the order unique, so an unstable sort finds it.
func keyOrder(keys []float64, order []int) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return a - b
	})
}

// refCut sorts the entries along an axis, halves them at the median and costs
// the two boxes with the objective.
func refCut(split SplitObjective, n *node, axis int) (cost float64, left, right ParamBox) {
	keys, order := make([]float64, n.entryCount()), make([]int, n.entryCount())
	for i := range keys {
		keys[i] = refKey(n, i, axis)
	}
	keyOrder(keys, order)
	mid := len(order) / 2
	left, right = refBoxOfEntries(n, order[:mid]), refBoxOfEntries(n, order[mid:])
	switch split {
	case SplitHullIntegralSum:
		return left.AccessCostSum() + right.AccessCostSum(), left, right
	case SplitVolume:
		return logAddExp(left.LogVolume(), right.LogVolume()), left, right
	}
	return logAddExp(left.LogAccessCost(), right.LogAccessCost()), left, right
}

// cutNode draws a node of m entries whose parameters provoke what the tie rule
// and the extents have to get right. levels > 0 draws every column from that
// many distinct values (duplicate keys across the median; 1 is a constant
// column), wide spreads σ log-uniformly over 1e-12 … 1e12, and every seventh
// μ is a zero of either sign.
func cutNode(rng *rand.Rand, m, dim, levels int, wide, inner bool) *node {
	draw := func(sigma bool) float64 {
		x := rng.NormFloat64() * 10
		if levels > 0 {
			x = float64(rng.Intn(levels)) - float64(levels/2)
		}
		switch {
		case sigma && wide:
			return math.Pow(10, -12+24*rng.Float64())
		case sigma:
			return math.Abs(x) + 0.5
		case rng.Intn(7) == 0:
			return math.Copysign(0, x)
		}
		return x
	}
	n := &node{leaf: !inner}
	for i := 0; i < m; i++ {
		if inner {
			box := NewParamBox(dim)
			for j := 0; j < dim; j++ {
				mu, sg := draw(false), draw(true)
				box.Mu[j] = gaussian.Interval{Lo: mu, Hi: mu + float64(rng.Intn(3))}
				box.Sigma[j] = gaussian.Interval{Lo: sg, Hi: sg * float64(1+rng.Intn(3))}
			}
			n.children = append(n.children, childEntry{count: 1, box: box})
			continue
		}
		mean, sigma := make([]float64, dim), make([]float64, dim)
		for j := range mean {
			mean[j], sigma[j] = draw(false), draw(true)
		}
		n.vectors = append(n.vectors, pfv.Vector{ID: uint64(i), Mean: mean, Sigma: sigma})
	}
	return n
}

// checkMedianCut holds the evaluator to the reference on one node, for all
// three objectives: along every axis the cost bit for bit and both halves'
// boxes (compared with ==, which does not tell the zeros apart — no objective
// does either), and the chosen axis.
func checkMedianCut(t *testing.T, n *node, dim int) {
	t.Helper()
	eval := newMedianCut(dim, 0, n.entryCount(), n.entryCount())
	if n.leaf {
		eval.gatherVectors(n.vectors, 1)
	} else {
		eval.gatherChildren(n.children)
	}
	for _, split := range []SplitObjective{SplitHullIntegral, SplitHullIntegralSum, SplitVolume} {
		eval.split = split
		got := eval.best()
		want, wantCost := 0, 0.0
		for axis := 0; axis < 2*dim; axis++ {
			cost, left, right := refCut(split, n, axis)
			if axis == 0 || cost < wantCost {
				want, wantCost = axis, cost
			}
			if c := eval.cost(axis); math.Float64bits(c) != math.Float64bits(cost) {
				t.Fatalf("split %d axis %d: cost %v, reference %v", split, axis, c, cost)
			}
			if !eval.halves[0].Equal(left) || !eval.halves[1].Equal(right) {
				t.Fatalf("split %d axis %d: halves %v | %v, reference %v | %v", split, axis, eval.halves[0], eval.halves[1], left, right)
			}
		}
		if got != want {
			t.Fatalf("split %d: chose axis %d, reference %d", split, got, want)
		}
	}
}

func TestMedianCutMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, m := range []int{2, 3, 4, 5, 8, 9, 17, 48, 49, 100, 511, 512, 1023} {
		for _, dim := range []int{1, 2, 10, 27} {
			if m > 100 && dim > 10 {
				continue
			}
			for _, levels := range []int{0, 1, 2, 3} {
				for _, inner := range []bool{false, true} {
					checkMedianCut(t, cutNode(rng, m, dim, levels, levels == 0 && m%2 == 1, inner), dim)
				}
			}
		}
	}
}

// TestMedianCutSample: the bulk loader's strided gather evaluates exactly the
// vectors the parent's sample slice held.
func TestMedianCutSample(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, size := range []int{sampleDiv, sampleDiv + 1, 2*sampleDiv - 1, 2 * sampleDiv, 5000} {
		part := cutNode(rng, size, 3, 0, false, false).vectors
		stride := max(1, size/sampleDiv)
		sample := &node{leaf: true}
		for i := 0; i < size; i += stride {
			sample.vectors = append(sample.vectors, part[i])
		}
		eval := newMedianCut(3, SplitHullIntegral, 2*sampleDiv-1, size)
		eval.gatherVectors(part, stride)
		if eval.m != len(sample.vectors) || eval.m >= 2*sampleDiv {
			t.Fatalf("part of %d: %d samples, want %d", size, eval.m, len(sample.vectors))
		}
		want, wantCost := 0, 0.0
		for axis := 0; axis < 6; axis++ {
			if cost, _, _ := refCut(SplitHullIntegral, sample, axis); axis == 0 || cost < wantCost {
				want, wantCost = axis, cost
			}
		}
		if got := eval.best(); got != want {
			t.Fatalf("part of %d: chose axis %d, reference %d", size, got, want)
		}
	}
}

func FuzzMedianCut(f *testing.F) {
	f.Add(int64(1), uint16(48), uint8(10), uint8(0), false, false)
	f.Add(int64(2), uint16(23), uint8(3), uint8(2), true, true)
	f.Add(int64(3), uint16(1021), uint8(1), uint8(1), false, true)
	f.Fuzz(func(t *testing.T, seed int64, m uint16, dim, levels uint8, wide, inner bool) {
		d := 1 + int(dim)%12
		checkMedianCut(t, cutNode(rand.New(rand.NewSource(seed)), 2+int(m)%1022, d, int(levels)%5, wide, inner), d)
	})
}

// TestRadixOrderIsKeyOrder: the radix sort returns exactly keyOrder's
// permutation — both zeros tie and keep index order, NaNs tie below −Inf — on
// short sets (insertion sort), long ones, runs of equal keys and keys over many
// binades.
func TestRadixOrderIsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64}
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 2, 5, insertionMax, insertionMax + 1, 100, 1023, 5000, 70000}[trial%10]
		keys := make([]float64, n)
		for i := range keys {
			switch trial / 10 % 5 {
			case 0:
				keys[i] = rng.NormFloat64()
			case 1: // few levels: long runs of equal keys
				keys[i] = float64(rng.Intn(3)) - 1
			case 2:
				keys[i] = specials[rng.Intn(len(specials))]
			case 3: // σ over 24 decades
				keys[i] = math.Pow(10, -12+24*rng.Float64())
			default: // keys that share their upper 32 bits
				keys[i] = math.Float64frombits(math.Float64bits(1.5) + uint64(rng.Intn(4096)))
			}
		}
		want := make([]int, n)
		keyOrder(keys, want)
		e := newMedianCut(1, SplitHullIntegral, 1, n)
		for i, x := range keys {
			e.bits[0][i] = sortBits(x)
		}
		got, sorted := e.radixOrder(n), e.bits[0]
		for i := range want {
			if int(got[i]) != want[i] || sorted[i] != sortBits(keys[want[i]]) {
				t.Fatalf("trial %d (n %d): position %d holds %d, keyOrder %d", trial, n, i, got[i], want[i])
			}
		}
	}
}

// TestDivideHandsDownFreshOrders: after a cut from held orders, every half
// that is cut again holds, at its own place, exactly the keys and orders a
// fresh gather of its vectors would — runs of equal keys and zeros of either
// sign included.
func TestDivideHandsDownFreshOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 200; trial++ {
		m, dim, levels := 2+rng.Intn(2*sampleDiv-2), 1+rng.Intn(6), rng.Intn(4)
		part := cutNode(rng, m, dim, levels, levels == 0 && trial%2 == 1, false).vectors
		e := newMedianCut(dim, SplitObjective(trial%3), m, m)
		e.gatherVectors(part, 1)
		k, fit := 2+rng.Intn(7), rng.Intn(3)-1
		at, k1 := e.divide(part, 0, k, fit)
		for _, half := range []struct{ base, n, k int }{{0, at, k1}, {at, m - at, k - k1}} {
			if half.k <= 1 || half.n <= fit || half.n < 2 {
				continue
			}
			fresh := newMedianCut(dim, e.split, half.n, half.n)
			fresh.gatherVectors(part[half.base:][:half.n], 1)
			e.base, e.m = half.base, half.n
			for axis := 0; axis < 2*dim; axis++ {
				if !slices.Equal(e.order(axis), fresh.order(axis)) || !slices.EqualFunc(e.axisKeys(axis), fresh.axisKeys(axis), func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					t.Fatalf("trial %d (m %d, k %d, levels %d): half at %d of %d, axis %d: inherited %v %v, fresh %v %v", trial, m, k, levels,
						half.base, half.n, axis, e.order(axis), e.axisKeys(axis), fresh.order(axis), fresh.axisKeys(axis))
				}
			}
		}
	}
}

// TestCutPositionIn64Bits: the proportional cut position n·(k/2)/k is taken in
// 64 bits, so it holds where the product passes 2³¹ — on a 32-bit host (run it
// with GOARCH=386) a top cut of 500 000 vectors at d = 10 into 10 870 leaves,
// here reached with a large k on a part that fits its sample and on one that
// is sampled.
func TestCutPositionIn64Bits(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{1000, 1 << 23}, {4096, 1 << 21}} {
		v := pfv.Vector{Mean: []float64{1}, Sigma: []float64{1}}
		part := make([]pfv.Vector, tc.n)
		for i := range part {
			part[i] = v
		}
		at, k1 := newMedianCut(1, SplitHullIntegral, min(tc.n, 2*sampleDiv-1), tc.n).cut(part, tc.k)
		if at != tc.n/2 || k1 != tc.k/2 {
			t.Errorf("%d vectors into %d pieces: cut at %d for %d pieces, want %d for %d", tc.n, tc.k, at, k1, tc.n/2, tc.k/2)
		}
	}
}
