package core

import (
	"math"
	"slices"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pqueue"
)

// activeQueue is the best-first queue of unexplored subtrees (§5.2), kept
// one heap entry per expanded node: push orders a node's surviving children
// by hull priority, best first and ties by child index, into a block, and
// the heap keys each block by its next child. pop takes the best block's
// next child and re-keys the block, so children leave in the order a heap of
// children would give them.
//
// When the traversal tracks the denominator (denom non-nil), a block also
// carries the §5.2.2 bounds of its waiting children as suffix sums, computed
// once back to front: mass[i] is Σ n·ˇN and Σ n·ˆN over kids[i] and every
// child after it in its block. The queue totals (denomTracker.floorPQ and
// hullPQ) then trade a block's old suffix for its new one on each pop, and a
// cancelled total is rebuilt from one suffix per live block.
type activeQueue struct {
	heap   *pqueue.Queue[int32] // live blocks, keyed by their next child's hull priority
	blocks []block
	kids   []queuedChild // every block's children, best first within a block
	mass   []suffix      // mass[i] is kids[i]'s suffix; empty without denom
	order  []int32       // scratch: one node's surviving children, best first
	denom  *denomTracker
	// deferred says no test has read the denominator yet: mass holds each
	// waiting child's own ln n·ˇN and ln n·ˆN (in floor.ref and hull.ref),
	// and neither the suffix sums nor the totals are kept. settle builds
	// both for the blocks still live, sparing the children popped before.
	deferred bool
}

// block is what one expanded node still has waiting: kids[next:end].
type block struct{ next, end int32 }

// queuedChild is one unexplored subtree under its hull priority ln ˆN(q).
type queuedChild struct {
	page pagefile.PageID
	prio float64
}

// suffix is a block's floor and hull sum bounds, Σ n·ˇN and Σ n·ˆN, from one
// child to the block's last.
type suffix struct{ floor, hull expSum }

// len returns the number of live blocks: 0 exactly when nothing is queued.
func (q *activeQueue) len() int { return q.heap.Len() }

// peek returns the next child to be popped.
func (q *activeQueue) peek() (c queuedChild, ok bool) {
	b, _, ok := q.heap.Peek()
	if !ok {
		return queuedChild{}, false
	}
	return q.kids[q.blocks[b].next], true
}

// push queues the children of one node as a block under their kernel
// bounds: hulls, and floors when the denominator is tracked. A screened
// child (hull −Inf under a ranked traversal's screen) is left out.
func (q *activeQueue) push(children []childEntry, hulls, floors []float64, screened bool) {
	order := q.order[:0]
	for i, h := range hulls {
		if screened && math.IsInf(h, -1) {
			continue
		}
		j := len(order)
		order = append(order, 0)
		for ; j > 0 && hulls[order[j-1]] < h; j-- {
			order[j] = order[j-1]
		}
		order[j] = int32(i)
	}
	q.order = order
	if len(order) == 0 {
		return
	}
	start := len(q.kids)
	for _, i := range order {
		q.kids = append(q.kids, queuedChild{children[i].page, hulls[i]})
	}
	if q.denom != nil {
		q.mass = slices.Grow(q.mass, len(order))[:len(q.kids)]
		for j, i := range order {
			lc := children[i].logCount
			q.mass[start+j] = suffix{expSum{floors[i] + lc, 0}, expSum{hulls[i] + lc, 0}}
		}
		if !q.deferred {
			q.sumSuffixes(start, len(q.kids))
			q.denom.enter(q.mass[start])
		}
	}
	q.heap.Push(int32(len(q.blocks)), hulls[order[0]])
	q.blocks = append(q.blocks, block{int32(start), int32(len(q.kids))})
}

// pop removes and returns the next child; the queue must not be empty.
func (q *activeQueue) pop() queuedChild {
	bi, _, _ := q.heap.Peek()
	b := &q.blocks[bi]
	i := b.next
	b.next++
	if q.denom != nil && !q.deferred {
		var next suffix
		if b.next < b.end {
			next = q.mass[b.next]
		}
		q.denom.advance(q.mass[i], next)
	}
	if b.next < b.end {
		q.heap.FixTop(q.kids[b.next].prio)
	} else {
		q.heap.Pop()
	}
	return q.kids[i]
}

// sumSuffixes turns mass[from:end], the own terms of one block's waiting
// children, into their suffix sums, back to front.
func (q *activeQueue) sumSuffixes(from, end int) {
	var f, h scaledAccum
	for j := end - 1; j >= from; j-- {
		f.add(q.mass[j].floor.ref)
		h.add(q.mass[j].hull.ref)
		q.mass[j] = suffix{f.expSum, h.expSum}
	}
}

// settle ends the deferral: the suffix sums of every live block, each
// entered into the totals.
func (q *activeQueue) settle() {
	q.deferred = false
	q.heap.Items(func(b int32, _ float64) {
		q.sumSuffixes(int(q.blocks[b].next), int(q.blocks[b].end))
		q.denom.enter(q.mass[q.blocks[b].next])
	})
}

// Clear empties the queue, keeping its capacity, and detaches it from the
// denominator tracker.
func (q *activeQueue) Clear() {
	q.heap.Clear()
	q.blocks, q.kids, q.mass, q.order = q.blocks[:0], q.kids[:0], q.mass[:0], q.order[:0]
	q.denom, q.deferred = nil, false
}
