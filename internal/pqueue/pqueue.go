// Package pqueue provides the binary-heap priority queues used by every
// query engine in this repository: the max-queue of active Gauss-tree nodes
// of the Hjaltason/Samet best-first traversal, the bounded top-k candidate
// heap of k-MLIQ, and the threshold-query candidate set.
package pqueue

// Queue is a binary-heap priority queue over values of type T with float64
// priorities. The zero value is not usable; construct with NewMax or NewMin.
type Queue[T any] struct {
	items []entry[T]
	max   bool
}

type entry[T any] struct {
	value T
	prio  float64
}

// NewMax returns a queue whose Pop yields the highest-priority element first.
func NewMax[T any]() *Queue[T] { return &Queue[T]{max: true} }

// NewMin returns a queue whose Pop yields the lowest-priority element first.
func NewMin[T any]() *Queue[T] { return &Queue[T]{} }

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push inserts value with the given priority.
func (q *Queue[T]) Push(value T, prio float64) {
	q.items = append(q.items, entry[T]{value: value, prio: prio})
	q.siftUp(len(q.items) - 1)
}

// Peek returns the next element and its priority without removing it.
// ok is false when the queue is empty.
func (q *Queue[T]) Peek() (value T, prio float64, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, 0, false
	}
	return q.items[0].value, q.items[0].prio, true
}

// Pop removes and returns the next element and its priority.
// ok is false when the queue is empty.
func (q *Queue[T]) Pop() (value T, prio float64, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, 0, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = entry[T]{} // release for GC
	q.items = q.items[:last]
	if len(q.items) > 0 {
		q.siftDown(0)
	}
	return top.value, top.prio, true
}

// FixTop sets the priority of the next element to prio and restores the
// heap order: a re-keyed element moves without a Pop and a Push. The queue
// must not be empty.
func (q *Queue[T]) FixTop(prio float64) {
	q.items[0].prio = prio
	q.siftDown(0)
}

// Clear empties the queue, retaining allocated capacity.
func (q *Queue[T]) Clear() {
	for i := range q.items {
		q.items[i] = entry[T]{}
	}
	q.items = q.items[:0]
}

// Items invokes fn for every queued element in unspecified (heap) order.
// It must not mutate the queue from within fn.
func (q *Queue[T]) Items(fn func(value T, prio float64)) {
	for _, e := range q.items {
		fn(e.value, e.prio)
	}
}

func (q *Queue[T]) before(a, b float64) bool {
	if q.max {
		return a > b
	}
	return a < b
}

func (q *Queue[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(q.items[i].prio, q.items[parent].prio) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) siftDown(i int) {
	n := len(q.items)
	for {
		best := i
		if l := 2*i + 1; l < n && q.before(q.items[l].prio, q.items[best].prio) {
			best = l
		}
		if r := 2*i + 2; r < n && q.before(q.items[r].prio, q.items[best].prio) {
			best = r
		}
		if best == i {
			return
		}
		q.items[i], q.items[best] = q.items[best], q.items[i]
		i = best
	}
}
