package pqueue

import (
	"cmp"
	"slices"
)

// TopK keeps the k elements with the highest priority seen so far. It is the
// candidate list of the k-MLIQ algorithm (paper Figure 4): a bounded min-heap
// whose root is the current k-th best score, which doubles as the pruning
// bound against the active-page queue.
type TopK[T any] struct {
	k    int
	heap *Queue[T]
}

// NewTopK returns a collector for the k best-scoring elements. k must be
// positive; NewTopK panics otherwise because a zero-sized result set makes
// every query degenerate.
func NewTopK[T any](k int) *TopK[T] {
	if k <= 0 {
		panic("pqueue: TopK requires k > 0")
	}
	return &TopK[T]{k: k, heap: NewMin[T]()}
}

// Reset reconfigures the collector for a new capacity k and drops every
// collected element while retaining the heap's backing array — the reuse
// hook for pooled per-query collectors. Like NewTopK it panics on k <= 0.
func (t *TopK[T]) Reset(k int) {
	if k <= 0 {
		panic("pqueue: TopK requires k > 0")
	}
	t.k = k
	t.heap.Clear()
}

// Offer considers an element for inclusion. It reports whether the element
// was kept (queue not yet full, or better than the current k-th best).
func (t *TopK[T]) Offer(value T, prio float64) bool {
	if t.heap.Len() < t.k {
		t.heap.Push(value, prio)
		return true
	}
	if _, worst, _ := t.heap.Peek(); prio > worst {
		t.heap.Pop()
		t.heap.Push(value, prio)
		return true
	}
	return false
}

// Len returns the number of collected elements (≤ k).
func (t *TopK[T]) Len() int { return t.heap.Len() }

// K returns the configured capacity.
func (t *TopK[T]) K() int { return t.k }

// Bound returns the current k-th best priority, the score every unexplored
// element must beat to enter the result. Until the collector is full there
// is no bound yet and it returns ok=false (rather than a −Inf sentinel), so
// callers cannot prune prematurely.
func (t *TopK[T]) Bound() (prio float64, ok bool) {
	if t.heap.Len() < t.k {
		return 0, false
	}
	_, worst, _ := t.heap.Peek()
	return worst, true
}

// Items invokes fn for every collected element in unspecified order.
func (t *TopK[T]) Items(fn func(value T, prio float64)) { t.heap.Items(fn) }

// Sorted drains the collector and returns its elements ordered from best
// (highest priority) to worst. The collector is empty afterwards.
func (t *TopK[T]) Sorted() []T {
	type scored struct {
		v T
		p float64
	}
	tmp := make([]scored, 0, t.heap.Len())
	for {
		v, p, ok := t.heap.Pop()
		if !ok {
			break
		}
		tmp = append(tmp, scored{v, p})
	}
	slices.SortStableFunc(tmp, func(a, b scored) int { return cmp.Compare(b.p, a.p) })
	out := make([]T, len(tmp))
	for i, s := range tmp {
		out[i] = s.v
	}
	return out
}
