package core

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/gauss-tree/gausstree/internal/pfv"
)

// BulkLoad builds the tree bottom-up from a vector set, replacing the
// paper's one-by-one insertion for offline construction. The set is
// recursively median-split along the parameter axis that minimizes the same
// hull-integral objective the online split strategy uses (§5.3), until
// pieces fit into single leaves of capLeaf·(bulkLeafSlack−1)/bulkLeafSlack
// vectors (~96%: the first inserts need no split); upper levels are packed
// full by grouping consecutive partitions, preserving the recursive locality,
// at a fraction of Insert's build time. The tree must be empty.
//
// A part of more than 2·sampleDiv−1 vectors chooses its axis on a sample and
// is radix-sorted along it. A smaller part is its own sample: it is sorted
// once along every axis, and from then on each of its parts holds its entries'
// order along each of the 2·d axes — their ids in (key, id) order, equal keys
// in id order as the sort-based reference has them — so a median cut is a
// position in an order, a half's extent is the end of one, and the halves
// inherit the orders instead of being sorted again (medianCut). Only the
// partition is parallel (medianCut.runs), a pure function of the set: pages
// are allocated and written after it, run by run on the calling goroutine, so
// their ids and bytes do not depend on how many processors cut.
func (t *Tree) BulkLoad(vs []pfv.Vector) error { return t.BulkLoadOwned(slices.Clone(vs)) }

// BulkLoadOwned is BulkLoad of a slice the caller gives up (a group of Cuts):
// the partition reorders work in place instead of copying it.
func (t *Tree) BulkLoadOwned(work []pfv.Vector) error {
	if t.count != 0 {
		return fmt.Errorf("core: BulkLoad requires an empty tree (have %d vectors)", t.count)
	}
	for i, v := range work {
		if v.Dim() != t.dim {
			return fmt.Errorf("%w: vector %d has dimension %d, tree dimension %d", ErrDimension, i, v.Dim(), t.dim)
		}
	}
	if len(work) == 0 {
		return nil
	}
	if err := t.mutable(); err != nil {
		return err
	}
	if err := t.bulkLoad(work); err != nil {
		return t.fail(err)
	}
	return nil
}

// Cuts returns a copy of vs cut into k spatially coherent groups (some empty
// when k > len(vs)) by the bulk loader's own first cuts, in parallel like
// BulkLoad's. A partitioned database makes each group a shard (internal/shard):
// a subtree of the one tree over vs, which a query prunes by its root box like
// any other. Nobody else holds the copy: BulkLoadOwned may have each group.
func (t *Tree) Cuts(vs []pfv.Vector, k int) [][]pfv.Vector {
	return t.partition(slices.Clone(vs), k, -1)
}

// partition cuts work, in place, into k runs — fewer where a part of at most
// fit vectors was left whole — on up to GOMAXPROCS goroutines.
func (t *Tree) partition(work []pfv.Vector, k, fit int) [][]pfv.Vector {
	spare := make(chan struct{}, runtime.GOMAXPROCS(0)-1)
	return newMedianCut(t.dim, t.cfg.Split, min(len(work), 2*sampleDiv-1), len(work)).runs(work, k, fit, spare)
}

const (
	// sampleDiv sets the sample a cut's axis is chosen on: a part of more than
	// sampleDiv vectors is sampled at stride len/sampleDiv from its first on —
	// sampleDiv to 2·sampleDiv−1 samples; a smaller part is its own sample.
	// The rule is part of what defines the tree a vector set builds.
	sampleDiv = 512
	// spawnFloor is the smallest part whose left half is worth a goroutine.
	spawnFloor = 4096
)

// cutAt is the proportional cut of n vectors into k pieces: the first at of
// them take k1 = k/2 pieces, the rest the other k−k1. Cutting by target piece
// count (instead of plain medians) keeps every leaf at ~n/k ≈ the bulk fill
// rather than the ~62% a pure halving recursion converges to. The product is
// taken in 64 bits: n·(k/2) passes 2³¹ at n ≈ 445 000 vectors of d = 10.
func cutAt(n, k int) (at, k1 int) { return int(int64(n) * int64(k/2) / int64(k)), k / 2 }

// cut is the bulk loader's partition step for a part whose orders nobody
// holds: it sorts part in place along the axis the evaluator picks on the
// sample and returns cutAt's cut. The sort — the radix sort the per-axis orders
// use, over the whole part — orders the part's vectors: the next sample, and
// every leaf page of a part that is cut no further.
func (e *medianCut) cut(part []pfv.Vector, k int) (at, k1 int) {
	if len(part) > 1 {
		e.gatherVectors(part, max(1, len(part)/sampleDiv))
		axis, bits := e.best(), e.bits[0][:len(part)]
		for i, v := range part {
			if axis%2 == 1 {
				bits[i] = sortBits(v.Sigma[axis/2])
			} else {
				bits[i] = sortBits(v.Mean[axis/2])
			}
		}
		e.reorder(part, e.radixOrder(len(part)))
	}
	return cutAt(len(part), k)
}

// runs is the partition recursion: it cuts part, in place, into k consecutive
// runs (one where k ≤ 1 or the part fits) and returns them in order. A part
// that is its own sample is gathered and sorted along every axis once, and
// everything below it is cut from those orders (divide, ownRuns). A cut's
// halves are disjoint subslices, and a half's runs depend on nothing but its
// vectors and its k: while spare has room — a slot per processor beyond the
// caller's — a large part's left half is cut on a goroutine and scratch of its own.
func (e *medianCut) runs(part []pfv.Vector, k, fit int, spare chan struct{}) [][]pfv.Vector {
	if k <= 1 || len(part) <= fit {
		return [][]pfv.Vector{part}
	}
	if len(part) < 2*sampleDiv {
		e.gatherVectors(part, 1)
		return e.ownRuns(part, 0, k, fit)
	}
	at, k1 := e.cut(part, k)
	if len(part) < spawnFloor {
		spare = nil // never ready: this part and all of its parts stay here
	}
	lower := make(chan [][]pfv.Vector, 1)
	select {
	case spare <- struct{}{}:
		go func() {
			lower <- newMedianCut(e.dim, e.split, min(at, 2*sampleDiv-1), at).runs(part[:at], k1, fit, spare)
			<-spare
		}()
	default:
		lower <- e.runs(part[:at], k1, fit, spare)
	}
	upper := e.runs(part[at:], k-k1, fit, spare)
	return append(<-lower, upper...)
}

// ownRuns is runs for a part whose orders the evaluator holds at base.
func (e *medianCut) ownRuns(part []pfv.Vector, base, k, fit int) [][]pfv.Vector {
	if k <= 1 || len(part) <= fit {
		return [][]pfv.Vector{part}
	}
	at, k1 := e.divide(part, base, k, fit)
	return append(e.ownRuns(part[:at], base, k1, fit), e.ownRuns(part[at:], base+at, k-k1, fit)...)
}

func (t *Tree) bulkLoad(work []pfv.Vector) error {
	// One leaf per run of the partition, allocated and written in run order.
	fill := max(t.minLeaf, t.capLeaf*(bulkLeafSlack-1)/bulkLeafSlack)
	var level []childEntry
	for _, run := range t.partition(work, (len(work)+fill-1)/fill, fill) {
		leaf := &node{leaf: true, vectors: run}
		if err := t.persistNew(leaf); err != nil {
			return err
		}
		level = append(level, leaf.entry(t.dim))
	}

	// Assemble upper levels from consecutive runs.
	height := 1
	for len(level) > 1 {
		groups := chunkEntries(level, t.capInner, t.minInner)
		next := make([]childEntry, 0, len(groups))
		for _, g := range groups {
			n := &node{children: g}
			if err := t.persistNew(n); err != nil {
				return err
			}
			next = append(next, n.entry(t.dim))
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
	t.count = len(work)
	// A bulk load bypasses the WAL (logging a full rebuild record-by-record
	// would defeat its purpose): it seals with a checkpoint-grade meta
	// commit covering every previously logged record, then publishes.
	if err := t.checkpoint(); err != nil {
		return err
	}
	t.publish()
	return nil
}

// chunkEntries groups a level's entries into inner-node-sized chunks,
// borrowing from the previous chunk when the tail would underflow.
func chunkEntries(entries []childEntry, capacity, minimum int) [][]childEntry {
	var out [][]childEntry
	for len(entries) > 0 {
		n := min(capacity, len(entries))
		// Avoid leaving an underfull tail.
		if rest := len(entries) - n; rest > 0 && rest < minimum {
			n = len(entries) - minimum
		}
		out = append(out, entries[:n:n])
		entries = entries[n:]
	}
	return out
}
