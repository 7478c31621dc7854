package core

import (
	"math"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// medianCut evaluates the §5.3 split objective for the median cut of m entries
// along each of the 2·dim parameter axes (axis 2·i is μᵢ, 2·i+1 is σᵢ): the one
// evaluator behind the bulk loader's cut and the online split. The entries are
// gathered once into 6·dim columns of m — per axis the lower bound, the negated
// upper bound (both ends of an extent are minima) and the sort key: a leaf
// vector is its own bounds and key, an inner entry's key is its centre. The
// objective needs the halves only as sets, so no axis is sorted: a selection
// finds the key of rank m/2, and the left half is every entry below it plus, in
// index order, as many equal to it as fill the half — the first m/2 of the
// stable (key, index) order keyOrder produces (the sort-based form is the tests'
// reference). A half's extent in a column is the first of the column's nearEnds
// smallest entries that fell into the half; the column is scanned only when
// none did, when it is correlated with the axis.
type medianCut struct {
	dim, m int
	split  SplitObjective
	data   []float64 // columns of m: 2·dim lower, 2·dim negated upper, 2·dim keys
	right  []uint8   // per entry: 1 when it falls into the right half
	near   []int32   // per bound column its min(m, nearEnds) smallest entries, ascending
	halves [2]ParamBox
	// Scratch for n ≥ m entries: the selection's (and cut's sort) keys, a sort's
	// order; cut's sorted part, grown by the first (largest) part.
	sel    []float64
	order  []int
	sorted []pfv.Vector
}

const nearEnds = 8

// newMedianCut returns an evaluator for up to m entries at a time, with sort
// scratch for n.
func newMedianCut(dim int, split SplitObjective, m, n int) *medianCut {
	return &medianCut{dim: dim, split: split, data: make([]float64, 6*dim*m), right: make([]uint8, m), near: make([]int32, 4*dim*nearEnds),
		halves: [2]ParamBox{NewParamBox(dim), NewParamBox(dim)}, sel: make([]float64, n), order: make([]int, n)}
}

func (e *medianCut) col(c int) []float64 { return e.data[c*e.m : (c+1)*e.m] }

// put stores entry s's interval and key on one axis.
func (e *medianCut) put(s, axis int, lo, hi, key float64) {
	e.data[axis*e.m+s], e.data[(2*e.dim+axis)*e.m+s], e.data[(4*e.dim+axis)*e.m+s] = lo, -hi, key
}

// gatherVectors loads every stride-th vector of vs, from the first on.
func (e *medianCut) gatherVectors(vs []pfv.Vector, stride int) {
	e.m = (len(vs) + stride - 1) / stride
	for s := 0; s < e.m; s++ {
		v := vs[s*stride]
		for i, mu := range v.Mean {
			e.put(s, 2*i, mu, mu, mu)
			e.put(s, 2*i+1, v.Sigma[i], v.Sigma[i], v.Sigma[i])
		}
	}
}

// gatherChildren loads the entries of an inner node.
func (e *medianCut) gatherChildren(children []childEntry) {
	e.m = len(children)
	for s, c := range children {
		for i, mu := range c.box.Mu {
			sg := c.box.Sigma[i]
			e.put(s, 2*i, mu.Lo, mu.Hi, (mu.Lo+mu.Hi)/2)
			e.put(s, 2*i+1, sg.Lo, sg.Hi, (sg.Lo+sg.Hi)/2)
		}
	}
}

// best returns the first of the axes whose median cut minimizes the objective.
func (e *medianCut) best() int {
	for c := 0; c < 4*e.dim; c++ {
		col, near := e.col(c), e.near[c*nearEnds:][:0]
		for s, v := range col {
			i := min(len(near), nearEnds-1) // where s lands if nothing listed is larger
			if i < len(near) && v >= col[near[i]] {
				continue
			}
			for near = near[:i+1]; i > 0 && v < col[near[i-1]]; i-- {
				near[i] = near[i-1]
			}
			near[i] = int32(s)
		}
	}
	bestAxis, bestCost := 0, 0.0
	for axis := 0; axis < 2*e.dim; axis++ {
		if cost := e.cost(axis); axis == 0 || cost < bestCost {
			bestAxis, bestCost = axis, cost
		}
	}
	return bestAxis
}

// cost evaluates the median cut along one axis, leaving the two halves' boxes
// in e.halves. It reads the near lists best builds after a gather.
func (e *medianCut) cost(axis int) float64 {
	keys := e.col(4*e.dim + axis)
	pivot, room := selectRank(e.sel[:copy(e.sel, keys)], e.m/2), e.m/2
	for _, k := range keys {
		if k < pivot {
			room-- // what is left is for entries equal to the pivot
		}
	}
	for s, k := range keys {
		e.right[s] = 1
		if k < pivot {
			e.right[s] = 0
		} else if k == pivot && room > 0 {
			e.right[s] = 0
			room--
		}
	}
	for c := 0; c < 4*e.dim; c++ {
		col, seen := e.col(c), 0
		var least [2]float64
		for _, s := range e.near[c*nearEnds:][:min(e.m, nearEnds)] {
			if h := e.right[s]; seen&(1<<h) == 0 {
				least[h], seen = col[s], seen|1<<h
			}
		}
		if seen != 3 {
			least = [2]float64{math.Inf(1), math.Inf(1)}
			for s, h := range e.right[:e.m] {
				if v := col[s]; v < least[h&1] {
					least[h&1] = v
				}
			}
		}
		for h, v := range least {
			a := c % (2 * e.dim)
			iv := &e.halves[h].Mu[a/2]
			if a%2 == 1 {
				iv = &e.halves[h].Sigma[a/2]
			}
			if c == a {
				iv.Lo = v
			} else {
				iv.Hi = -v
			}
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

// selectRank reorders s so that s[k] is its k-th smallest element, from 0, and
// returns it: Hoare's quickselect around the middle element, which halves a
// sorted run (a part cut along one axis twice) and a run of equal keys.
func selectRank(s []float64, k int) float64 {
	for lo, hi := 0, len(s)-1; lo < hi; {
		p, i, j := s[lo+(hi-lo)/2], lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i, j = i+1, j-1
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return s[k]
}
