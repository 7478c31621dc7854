package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// BulkLoad builds the tree bottom-up from a vector set, replacing the
// paper's one-by-one insertion for offline construction. The set is
// recursively median-split along the parameter axis that minimizes the same
// hull-integral objective the online split strategy uses (§5.3), until
// pieces fit into single leaves; leaves are packed full and upper levels are
// assembled by grouping consecutive partitions, preserving the recursive
// locality. Compared to repeated Insert this yields ~100% leaf utilization
// and a fraction of the build time. The tree must be empty.
func (t *Tree) BulkLoad(vs []pfv.Vector) error {
	if t.count != 0 {
		return fmt.Errorf("core: BulkLoad requires an empty tree (have %d vectors)", t.count)
	}
	for i, v := range vs {
		if v.Dim() != t.dim {
			return fmt.Errorf("%w: vector %d has dimension %d, tree dimension %d", ErrDimension, i, v.Dim(), t.dim)
		}
	}
	if len(vs) == 0 {
		return nil
	}
	if err := t.mutable(); err != nil {
		return err
	}
	if err := t.bulkLoad(vs); err != nil {
		return t.fail(err)
	}
	return nil
}

// cutter returns the bulk loader's partition step for sets of up to n vectors
// (the steps run one at a time and share their sort scratch). cut sorts part
// in place along its best split axis and returns the proportional cut for k
// pieces: part[:at] takes k1 = k/2 of them, part[at:] the other k−k1. Cutting
// by target piece count (instead of plain medians) keeps every leaf at
// ~n/k ≈ full capacity rather than the ~62% a pure halving recursion
// converges to.
func (t *Tree) cutter(n int) (cut func(part []pfv.Vector, k int) (at, k1 int)) {
	keys, order, sorted := make([]float64, n), make([]int, n), make([]pfv.Vector, n)
	return func(part []pfv.Vector, k int) (at, k1 int) {
		if len(part) > 1 {
			axis := t.bestBulkAxis(part, keys, order)
			keyOrder(axisKeys(part, axis, keys), order[:len(part)])
			for i, j := range order[:len(part)] {
				sorted[i] = part[j]
			}
			copy(part, sorted)
		}
		k1 = k / 2
		return len(part) * k1 / k, k1
	}
}

// Cuts returns vs cut into k spatially coherent groups (some empty when
// k > len(vs); vs itself when k is 1) by the bulk loader's own first cuts. A
// partitioned database makes each group a shard (internal/shard): a subtree
// of the one tree over vs, which a query prunes by its root box like any other.
func (t *Tree) Cuts(vs []pfv.Vector, k int) [][]pfv.Vector {
	if k == 1 {
		return [][]pfv.Vector{vs}
	}
	cut := t.cutter(len(vs))
	groups := make([][]pfv.Vector, 0, k)
	var rec func(part []pfv.Vector, k int)
	rec = func(part []pfv.Vector, k int) {
		if k == 1 {
			groups = append(groups, part)
			return
		}
		at, k1 := cut(part, k)
		rec(part[:at], k1)
		rec(part[at:], k-k1)
	}
	rec(append([]pfv.Vector(nil), vs...), k)
	return groups
}

func (t *Tree) bulkLoad(vs []pfv.Vector) error {
	work := append([]pfv.Vector(nil), vs...)
	cut := t.cutter(len(work))

	// Recursively partition into k near-full leaf runs.
	var level []childEntry
	var partition func(part []pfv.Vector, k int) error
	partition = func(part []pfv.Vector, k int) error {
		if k <= 1 || len(part) <= t.capLeaf {
			id, err := t.mgr.Allocate()
			if err != nil {
				return err
			}
			leaf := &node{id: id, leaf: true, vectors: part}
			if err := t.persistNode(leaf); err != nil {
				return err
			}
			level = append(level, childEntry{page: id, count: len(part), box: leaf.computeBox(t.dim)})
			return nil
		}
		at, k1 := cut(part, k)
		if err := partition(part[:at], k1); err != nil {
			return err
		}
		return partition(part[at:], k-k1)
	}
	leafCount := (len(work) + t.capLeaf - 1) / t.capLeaf
	if err := partition(work, leafCount); err != nil {
		return err
	}

	// Assemble upper levels from consecutive runs.
	height := 1
	for len(level) > 1 {
		groups := chunkEntries(level, t.capInner, t.minInner)
		next := make([]childEntry, 0, len(groups))
		for _, g := range groups {
			id, err := t.mgr.Allocate()
			if err != nil {
				return err
			}
			n := &node{id: id, children: g}
			if err := t.persistNode(n); err != nil {
				return err
			}
			next = append(next, childEntry{page: id, count: n.subtreeCount(), box: n.computeBox(t.dim)})
		}
		level = next
		height++
	}

	// The previous (empty) root page is superseded; its release is deferred
	// so a crash before the commit below still recovers the empty tree.
	if err := t.mgr.FreeDeferred(t.root); err != nil {
		return err
	}
	t.root = level[0].page
	t.height = height
	t.count = len(vs)
	// A bulk load bypasses the WAL (logging a full rebuild record-by-record
	// would defeat its purpose): it seals with a checkpoint-grade meta
	// commit covering every previously logged record, then publishes.
	if err := t.checkpoint(); err != nil {
		return err
	}
	t.publish()
	return nil
}

// axisKeys fills keys[:len(vs)] with the vectors' coordinate along a split
// axis (2·dim for μ, 2·dim+1 for σ) and returns that prefix.
func axisKeys(vs []pfv.Vector, axis int, keys []float64) []float64 {
	for i, v := range vs {
		keys[i] = v.Mean[axis/2]
		if axis%2 == 1 {
			keys[i] = v.Sigma[axis/2]
		}
	}
	return keys[:len(vs)]
}

// keyOrder fills order with the stable ascending order of keys: the index of
// the i-th smallest key at position i, equal keys in index order. The index
// tie-break makes the order unique, so an unstable sort finds it — without
// sort.SliceStable's reflection-based swapper.
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

// bestBulkAxis picks the split axis for a partition by evaluating the
// configured split objective on a sample, exactly like the online median
// split but subsampled for speed. keys and order are scratch at least as
// long as the sample.
func (t *Tree) bestBulkAxis(part []pfv.Vector, keys []float64, order []int) int {
	const sampleCap = 512
	sample := part
	if len(part) > sampleCap {
		stride := len(part) / sampleCap
		sample = make([]pfv.Vector, 0, sampleCap)
		for i := 0; i < len(part); i += stride {
			sample = append(sample, part[i])
		}
	}
	order = order[:len(sample)]
	probe := &node{leaf: true, vectors: sample}
	bestAxis, bestCost := 0, 0.0
	for axis := 0; axis < 2*t.dim; axis++ {
		keyOrder(axisKeys(sample, axis, keys), order)
		cost := t.splitCost(probe, order)
		if axis == 0 || cost < bestCost {
			bestAxis, bestCost = axis, cost
		}
	}
	return bestAxis
}

// chunkEntries groups a level's entries into inner-node-sized chunks,
// borrowing from the previous chunk when the tail would underflow.
func chunkEntries(entries []childEntry, capacity, minimum int) [][]childEntry {
	var out [][]childEntry
	for len(entries) > 0 {
		n := capacity
		if n > len(entries) {
			n = len(entries)
		}
		// Avoid leaving an underfull tail.
		if rest := len(entries) - n; rest > 0 && rest < minimum {
			n = len(entries) - minimum
		}
		out = append(out, entries[:n:n])
		entries = entries[n:]
	}
	return out
}
