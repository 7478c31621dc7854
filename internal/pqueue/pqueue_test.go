package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMaxQueueOrdering(t *testing.T) {
	q := NewMax[string]()
	q.Push("b", 2)
	q.Push("a", 1)
	q.Push("d", 4)
	q.Push("c", 3)
	want := []string{"d", "c", "b", "a"}
	for i, w := range want {
		v, p, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if v != w {
			t.Errorf("pop %d = %q (prio %v), want %q", i, v, p, w)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("queue should be empty")
	}
}

func TestMinQueueOrdering(t *testing.T) {
	q := NewMin[int]()
	for _, p := range []float64{5, 1, 3, 2, 4} {
		q.Push(int(p), p)
	}
	for want := 1; want <= 5; want++ {
		v, _, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("pop = %d,%v want %d", v, ok, want)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	q := NewMax[int]()
	q.Push(7, 7)
	q.Push(9, 9)
	v, p, ok := q.Peek()
	if !ok || v != 9 || p != 9 {
		t.Fatalf("peek = %v,%v,%v", v, p, ok)
	}
	if q.Len() != 2 {
		t.Errorf("Len after peek = %d", q.Len())
	}
	if v2, _, _ := q.Pop(); v2 != 9 {
		t.Errorf("pop after peek = %d", v2)
	}
}

func TestEmptyQueue(t *testing.T) {
	q := NewMin[string]()
	if _, _, ok := q.Peek(); ok {
		t.Error("peek on empty should report !ok")
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("pop on empty should report !ok")
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d", q.Len())
	}
}

func TestClearRetainsUsability(t *testing.T) {
	q := NewMax[int]()
	for i := 0; i < 10; i++ {
		q.Push(i, float64(i))
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after clear = %d", q.Len())
	}
	q.Push(42, 1)
	if v, _, _ := q.Pop(); v != 42 {
		t.Error("queue unusable after Clear")
	}
}

func TestItemsVisitsAll(t *testing.T) {
	q := NewMin[int]()
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		q.Push(i, rand.Float64())
	}
	q.Items(func(v int, _ float64) { seen[v] = true })
	if len(seen) != 20 {
		t.Errorf("Items visited %d elements, want 20", len(seen))
	}
	if q.Len() != 20 {
		t.Errorf("Items must not consume the queue; Len = %d", q.Len())
	}
}

func TestQueueHeapProperty(t *testing.T) {
	// Pushing random values then draining must yield a sorted sequence.
	prop := func(raw []float64) bool {
		q := NewMax[float64]()
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v != v { // NaN priorities are unsupported by contract
				continue
			}
			q.Push(v, v)
			vals = append(vals, v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		for _, want := range vals {
			got, _, ok := q.Pop()
			if !ok || got != want {
				return false
			}
		}
		_, _, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedPushPop(t *testing.T) {
	q := NewMin[int]()
	rng := rand.New(rand.NewSource(17))
	mirror := []float64{}
	for step := 0; step < 5000; step++ {
		if rng.Float64() < 0.6 || len(mirror) == 0 {
			p := rng.NormFloat64()
			q.Push(step, p)
			mirror = append(mirror, p)
		} else {
			_, p, ok := q.Pop()
			if !ok {
				t.Fatal("unexpected empty queue")
			}
			// p must equal the minimum of the mirror.
			minI := 0
			for i, m := range mirror {
				if m < mirror[minI] {
					minI = i
				}
			}
			if p != mirror[minI] {
				t.Fatalf("step %d: popped %v, want %v", step, p, mirror[minI])
			}
			mirror = append(mirror[:minI], mirror[minI+1:]...)
		}
	}
}

func TestTopKBasics(t *testing.T) {
	tk := NewTopK[string](3)
	if _, ok := tk.Bound(); ok {
		t.Error("Bound must be unavailable until full")
	}
	tk.Offer("a", 1)
	tk.Offer("b", 5)
	tk.Offer("c", 3)
	if tk.Len() != 3 {
		t.Fatalf("Len=%d", tk.Len())
	}
	if b, ok := tk.Bound(); !ok || b != 1 {
		t.Errorf("Bound = %v,%v want 1", b, ok)
	}
	if kept := tk.Offer("d", 0.5); kept {
		t.Error("worse element must be rejected")
	}
	if kept := tk.Offer("e", 4); !kept {
		t.Error("better element must be kept")
	}
	got := tk.Sorted()
	want := []string{"b", "e", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sorted[%d] = %q, want %q (%v)", i, got[i], want[i], got)
		}
	}
	if tk.Len() != 0 {
		t.Error("Sorted should drain the collector")
	}
}

func TestTopKAgainstSort(t *testing.T) {
	prop := func(raw []float64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		tk := NewTopK[float64](k)
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v != v {
				continue
			}
			tk.Offer(v, v)
			vals = append(vals, v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		if len(vals) > k {
			vals = vals[:k]
		}
		got := tk.Sorted()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

func TestTopKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTopK(0) should panic")
		}
	}()
	NewTopK[int](0)
}

func TestTopKItems(t *testing.T) {
	tk := NewTopK[int](2)
	tk.Offer(1, 1)
	tk.Offer(2, 2)
	tk.Offer(3, 3)
	sum := 0
	tk.Items(func(v int, _ float64) { sum += v })
	if sum != 5 { // 2 and 3 survive
		t.Errorf("Items sum = %d, want 5", sum)
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewMax[int]()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i, rng.Float64())
		if q.Len() > 1024 {
			q.Pop()
		}
	}
}

func BenchmarkTopKOffer(b *testing.B) {
	tk := NewTopK[int](10)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Offer(i, rng.Float64())
	}
}

// TestTopKReset covers the pooled-collector reuse hook: Reset must drop
// collected elements, retain correctness for a different k, and keep
// panicking on invalid capacities.
func TestTopKReset(t *testing.T) {
	tk := NewTopK[string](2)
	tk.Offer("a", 1)
	tk.Offer("b", 2)
	tk.Reset(3)
	if tk.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", tk.Len())
	}
	if tk.K() != 3 {
		t.Fatalf("K after Reset = %d, want 3", tk.K())
	}
	if _, ok := tk.Bound(); ok {
		t.Error("reset collector must not report a bound")
	}
	for i, s := range []string{"x", "y", "z", "w"} {
		tk.Offer(s, float64(i))
	}
	got := tk.Sorted()
	if len(got) != 3 || got[0] != "w" || got[1] != "z" || got[2] != "y" {
		t.Errorf("Sorted after reuse = %v", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("Reset(0) should panic")
		}
	}()
	tk.Reset(0)
}

// TestQueueClearReuse verifies Clear retains capacity while zeroing entries,
// the discipline the pooled per-query queues rely on.
func TestQueueClearReuse(t *testing.T) {
	q := NewMin[int]()
	for i := 0; i < 100; i++ {
		q.Push(i, float64(i))
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after Clear = %d", q.Len())
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			q.Push(i, float64(100-i))
		}
		q.Clear()
	})
	if allocs != 0 {
		t.Errorf("reused queue allocated %.1f objects per cycle, want 0", allocs)
	}
}
