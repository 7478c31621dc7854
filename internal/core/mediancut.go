package core

import (
	"math"
	mathbits "math/bits"
	"slices"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// medianCut evaluates the §5.3 split objective for the median cut of m entries
// along each of the 2·dim parameter axes (axis 2·i is μᵢ, 2·i+1 is σᵢ): the one
// evaluator behind the bulk loader's cuts, Cuts and the online split. Per axis
// it holds the entries' keys by entry id — a leaf vector's value, an inner
// entry's centre — and their order: the ids in the stable (key, id) order
// keyOrder defines, which radixOrder finds. An axis's median cut is the first
// m/2 of its order, the left half the sort-based reference takes. A half's
// extent along the cut axis is read at the ends of its part of the order; along
// any other axis it is the key of the half's first and last member in that
// axis's order, found by walking the order in from each end until both halves
// have shown up. An inner entry's bounds are not its key, so it has two more
// orders per axis, of its lower and of its upper bounds: a half's extent is
// the lower bound of its first member in the one and the upper bound of its
// last member in the other.
//
// A bulk-load part that is its own sample keeps its orders while it is cut
// (divide): the chosen axis's order becomes the part's new order, and the
// halves inherit every other order by a stable partition that renames each id
// to its new place. Equal keys must stay in id order, or a median among them
// would take other entries than the reference's; the partition leaves them in
// the parent's id order, so each run of equal keys is sorted by new id again.
type medianCut struct {
	dim   int
	split SplitObjective
	size  int // entries per axis block of ids and keys
	// The current part: m entries at position base of every axis block.
	base, m int
	ids     []int32   // per axis block: the part's entry ids in (key, id) order
	keys    []float64 // per axis block: the part's keys by entry id
	inner   bool      // the entries are child boxes, whose bounds lo and hi hold
	lo, hi  []float64 // per axis block: an inner entry's lower and upper bound by id
	loIDs   []int32   // per axis block: inner entry ids in (lower bound, id) order
	hiIDs   []int32   // per axis block: inner entry ids in (upper bound, id) order
	side    []uint8   // per entry id: the half of the costed cut that holds it
	halves  [2]ParamBox
	// Scratch: radix sort buffers and digit counts for n ≥ size keys;
	// divide's old id of each new id, new id of each old id, right-half order
	// and re-indexed keys; the sorted copy of a part.
	bits   [2][]uint64
	ord    [2][]int32
	count  []int32
	from   []int32
	inv    []int32
	right  []int32
	tkeys  []float64
	sorted []pfv.Vector
}

// newMedianCut returns an evaluator for up to m entries at a time, with sort
// scratch for n ≥ m.
func newMedianCut(dim int, split SplitObjective, m, n int) *medianCut {
	return &medianCut{dim: dim, split: split, size: m,
		ids: make([]int32, 2*dim*m), keys: make([]float64, 2*dim*m),
		side: make([]uint8, m), from: make([]int32, m), inv: make([]int32, m), right: make([]int32, m), tkeys: make([]float64, m),
		halves: [2]ParamBox{NewParamBox(dim), NewParamBox(dim)},
		bits:   [2][]uint64{make([]uint64, n), make([]uint64, n)}, ord: [2][]int32{make([]int32, n), make([]int32, n)},
		count: make([]int32, 1<<min(mathbits.Len(uint(n)), 16))}
}

// order and axisKeys are the current part's order and keys along an axis.
func (e *medianCut) order(axis int) []int32 { return e.ids[axis*e.size+e.base:][:e.m] }

func (e *medianCut) axisKeys(axis int) []float64 { return e.keys[axis*e.size+e.base:][:e.m] }

// gatherVectors loads every stride-th vector of vs, from the first on, and
// sorts every axis.
func (e *medianCut) gatherVectors(vs []pfv.Vector, stride int) {
	e.base, e.m, e.inner = 0, (len(vs)+stride-1)/stride, false
	for s := 0; s < e.m; s++ {
		v := vs[s*stride]
		for i, mu := range v.Mean {
			e.keys[2*i*e.size+s], e.keys[(2*i+1)*e.size+s] = mu, v.Sigma[i]
		}
	}
	e.sortAxes()
}

// gatherChildren loads the entries of an inner node and sorts every axis.
func (e *medianCut) gatherChildren(children []childEntry) {
	e.base, e.m, e.inner = 0, len(children), true
	if e.lo == nil {
		e.lo, e.hi = make([]float64, len(e.keys)), make([]float64, len(e.keys))
		e.loIDs, e.hiIDs = make([]int32, len(e.ids)), make([]int32, len(e.ids))
	}
	for s, c := range children {
		for i, mu := range c.box.Mu {
			for a, iv := range [2]gaussian.Interval{mu, c.box.Sigma[i]} {
				at := (2*i+a)*e.size + s
				e.keys[at], e.lo[at], e.hi[at] = (iv.Lo+iv.Hi)/2, iv.Lo, iv.Hi
			}
		}
	}
	e.sortAxes()
	for axis := 0; axis < 2*e.dim; axis++ {
		at := axis * e.size
		e.sortColumn(e.lo[at:][:e.m], e.loIDs[at:][:e.m])
		e.sortColumn(e.hi[at:][:e.m], e.hiIDs[at:][:e.m])
	}
}

// sortAxes orders the gathered keys along every axis.
func (e *medianCut) sortAxes() {
	for axis := 0; axis < 2*e.dim; axis++ {
		e.sortColumn(e.axisKeys(axis), e.order(axis))
	}
}

// sortColumn sets order to the (value, id) order of values by id.
func (e *medianCut) sortColumn(values []float64, order []int32) {
	bits := e.bits[0][:len(values)]
	for j, x := range values {
		bits[j] = sortBits(x)
	}
	copy(order, e.radixOrder(len(values)))
}

// best returns the first of the axes whose median cut minimizes the objective.
func (e *medianCut) best() int {
	bestAxis, bestCost := 0, 0.0
	for axis := 0; axis < 2*e.dim; axis++ {
		if cost := e.cost(axis); axis == 0 || cost < bestCost {
			bestAxis, bestCost = axis, cost
		}
	}
	return bestAxis
}

// cost evaluates the median cut along one axis, leaving the two halves' boxes
// in e.halves. The part must hold at least two entries.
func (e *medianCut) cost(axis int) float64 {
	order, mid := e.order(axis), e.m/2
	for _, j := range order[:mid] {
		e.side[j] = 0
	}
	for _, j := range order[mid:] {
		e.side[j] = 1
	}
	for a := 0; a < 2*e.dim; a++ {
		var lo, hi [2]float64
		if keys := e.axisKeys(a); a == axis && !e.inner {
			lo, hi = [2]float64{keys[order[0]], keys[order[mid]]}, [2]float64{keys[order[mid-1]], keys[order[e.m-1]]}
		} else {
			lo, hi = e.ends(a)
		}
		for h := range e.halves {
			iv := &e.halves[h].Mu[a/2]
			if a%2 == 1 {
				iv = &e.halves[h].Sigma[a/2]
			}
			iv.Lo, iv.Hi = lo[h], hi[h]
		}
	}
	switch left, right := e.halves[0], e.halves[1]; e.split {
	case SplitHullIntegralSum:
		return left.AccessCostSum() + right.AccessCostSum()
	case SplitVolume: // product-style objectives add in log space: 27-d products overflow
		return logAddExp(left.LogVolume(), right.LogVolume())
	default:
		return logAddExp(left.LogAccessCost(), right.LogAccessCost())
	}
}

// ends returns each half's least and greatest bound along axis a: the lower
// bound of its first member in the lower bounds' order and the upper bound of
// its last member in the upper bounds' (for a vector both are its key).
func (e *medianCut) ends(a int) (lo, hi [2]float64) {
	loIDs, lower, hiIDs, upper := e.order(a), e.axisKeys(a), e.order(a), e.axisKeys(a)
	if e.inner {
		at := a * e.size
		loIDs, lower, hiIDs, upper = e.loIDs[at:][:e.m], e.lo[at:][:e.m], e.hiIDs[at:][:e.m], e.hi[at:][:e.m]
	}
	for i, seen := 0, 0; seen != 3; i++ {
		if j := loIDs[i]; seen>>e.side[j]&1 == 0 {
			lo[e.side[j]], seen = lower[j], seen|1<<e.side[j]
		}
	}
	for i, seen := len(hiIDs)-1, 0; seen != 3; i-- {
		if j := hiIDs[i]; seen>>e.side[j]&1 == 0 {
			hi[e.side[j]], seen = upper[j], seen|1<<e.side[j]
		}
	}
	return lo, hi
}

// divide is cut for a part whose orders the evaluator holds at base: the
// chosen axis's order becomes the part's order, and a half that is cut again
// (k > 1 pieces of more than fit vectors) inherits its orders at its own
// place — the left half's at base, the right half's at base+at.
func (e *medianCut) divide(part []pfv.Vector, base, k, fit int) (at, k1 int) {
	at, k1 = cutAt(len(part), k)
	if len(part) < 2 {
		return at, k1
	}
	e.base, e.m = base, len(part)
	from := e.from[:e.m]
	copy(from, e.order(e.best()))
	e.reorder(part, from)
	if (k1 <= 1 || at <= fit) && (k-k1 <= 1 || len(part)-at <= fit) {
		return at, k1
	}
	for p, j := range from {
		e.inv[j] = int32(p)
	}
	for axis := 0; axis < 2*e.dim; axis++ {
		e.inherit(axis, at)
	}
	return at, k1
}

// inherit renames the current part's keys and order along an axis to the ids
// the part's new order gives, and splits the order at at: each half's order
// holds its own ids, from 0, in its own (key, id) order.
func (e *medianCut) inherit(axis, at int) {
	order, keys := e.order(axis), e.axisKeys(axis)
	tk := e.tkeys[:e.m]
	for p, j := range e.from[:e.m] {
		tk[p] = keys[j]
	}
	copy(keys, tk)
	left, right, cut := order[:0], e.right[:0], int32(at)
	for _, j := range order {
		if p := e.inv[j]; p < cut {
			left = append(left, p)
		} else {
			right = append(right, p-cut)
		}
	}
	copy(order[at:], right)
	sortRuns(order[:at], keys[:at])
	sortRuns(order[at:], keys[at:])
}

// sortRuns puts each run of equal keys in an order back in id order.
func sortRuns(order []int32, keys []float64) {
	for i := 1; i < len(order); i++ {
		if !sameKey(keys[order[i]], keys[order[i-1]]) {
			continue
		}
		j := i + 1
		for j < len(order) && sameKey(keys[order[j]], keys[order[i]]) {
			j++
		}
		slices.Sort(order[i-1 : j])
		i = j
	}
}

// sameKey reports whether keyOrder ties two keys: −0 and +0 do, and so do NaNs.
func sameKey(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// reorder permutes part into the given order of its indices.
func (e *medianCut) reorder(part []pfv.Vector, order []int32) {
	e.sorted = slices.Grow(e.sorted[:0], len(part))[:len(part)]
	for i, j := range order {
		e.sorted[i] = part[j]
	}
	copy(part, e.sorted)
}

// insertionMax is the most keys radixOrder insertion-sorts.
const insertionMax = 64

// sortBits maps a key to bits whose unsigned order is keyOrder's order of the
// keys (cmp.Compare's): both zeros to one image, every NaN below −Inf.
func sortBits(x float64) uint64 {
	switch b := math.Float64bits(x); {
	case x == 0:
		return 1 << 63
	case math.IsNaN(x):
		return 0
	case b>>63 != 0:
		return ^b
	default:
		return b | 1<<63
	}
}

// radixOrder returns keyOrder's permutation of the n keys whose sortBits are in
// e.bits[0], which it sorts along (msd).
func (e *medianCut) radixOrder(n int) []int32 {
	bits, ord := e.bits[0][:n], e.ord[0][:n]
	for i := range ord {
		ord[i] = int32(i)
	}
	e.msd(bits, ord, e.bits[1][:n], e.ord[1][:n])
	return ord
}

// msd sorts bits, and ord alongside, in place and stably — equal keys keep
// their order — with spare buffers of the same length: a most-significant-digit
// radix sort. One counting pass places the keys by the highest w bits in which
// they differ, w the bit length of their count (at most 16, so a digit holds
// about one key), and each run that ties on those bits is sorted by the bits
// below. Up to insertionMax keys are insertion-sorted, which is cheaper.
func (e *medianCut) msd(bits []uint64, ord []int32, bitsTo []uint64, ordTo []int32) {
	if len(bits) <= insertionMax {
		insertionSort(bits, ord)
		return
	}
	var diff uint64
	for _, b := range bits {
		diff |= b ^ bits[0]
	}
	if diff == 0 {
		return // one key: index order is its order
	}
	w := min(mathbits.Len(uint(len(bits))), 16)
	shift, mask := max(0, mathbits.Len64(diff)-w), uint64(1)<<w-1
	count := e.count[:1<<w]
	clear(count)
	for _, b := range bits {
		count[b>>shift&mask]++
	}
	at := int32(0)
	for v, k := range count {
		count[v], at = at, at+k
	}
	for i, b := range bits {
		v := b >> shift & mask
		bitsTo[count[v]], ordTo[count[v]] = b, ord[i]
		count[v]++
	}
	copy(bits, bitsTo)
	copy(ord, ordTo)
	for i := 0; i < len(bits) && shift > 0; {
		j := i + 1
		for j < len(bits) && bits[j]>>shift == bits[i]>>shift {
			j++
		}
		if j-i > 1 {
			e.msd(bits[i:j], ord[i:j], bitsTo[i:j], ordTo[i:j])
		}
		i = j
	}
}

// insertionSort sorts bits, and ord alongside, stably.
func insertionSort(bits []uint64, ord []int32) {
	for i := 1; i < len(bits); i++ {
		b, o, j := bits[i], ord[i], i
		for ; j > 0 && bits[j-1] > b; j-- {
			bits[j], ord[j] = bits[j-1], ord[j-1]
		}
		bits[j], ord[j] = b, o
	}
}
