package main

import "testing"

func us(x int64) int64 { return x * 1000 }

// Nested children: the parent's self time is its duration minus the union
// of the child intervals, so overlapping (parallel) children count once and
// a child reaching past the parent is clipped.
func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "a", Start: us(0), End: us(100)},
		{ID: 2, Parent: 1, Layer: "b", Start: us(10), End: us(40)},
		{ID: 3, Parent: 1, Layer: "b", Start: us(30), End: us(60)},  // overlaps 2
		{ID: 4, Parent: 1, Layer: "b", Start: us(90), End: us(120)}, // reaches past the parent
		{ID: 5, Parent: 2, Layer: "c", Start: us(15), End: us(25)},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: us(100 - 50 - 10), // children cover [10,60] and [90,100]
		2: us(30 - 10),
		3: us(30),
		4: us(30),
		5: us(10),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d ns, want %d", id, self[id], w)
		}
	}
}

// Peeled children are re-executions outside the parent's interval: the
// parent's self time subtracts the duration of the slowest of them.
func TestSelfTimesPeeled(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Layer: "facade", Start: us(0), End: us(100)},
		{ID: 2, Parent: 1, Req: 1, Layer: "shard", Peeled: true, Start: us(200), End: us(280)},
		{ID: 3, Parent: 2, Req: 1, Layer: "core", Peeled: true, Start: us(300), End: us(330)},
		{ID: 4, Parent: 2, Req: 1, Layer: "core", Peeled: true, Start: us(340), End: us(390)},
	}
	self := selfTimes(spans)
	if self[1] != us(20) {
		t.Errorf("facade self = %d, want %d", self[1], us(20))
	}
	if self[2] != us(30) { // 80 minus the slowest shard's 50
		t.Errorf("shard self = %d, want %d", self[2], us(30))
	}
	if self[4] != us(50) {
		t.Errorf("core self = %d, want %d", self[4], us(50))
	}
}

// A re-execution that by noise runs longer than the call it re-executes
// yields a negative self time; it must not be clamped, or the chain would
// stop summing to its root.
func TestSelfTimesSigned(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Layer: "facade", Start: 0, End: us(100)},
		{ID: 2, Parent: 1, Req: 1, Layer: "core", Peeled: true, Start: us(100), End: us(205)},
	}
	if got := selfTimes(spans)[1]; got != -us(5) {
		t.Errorf("self = %d, want %d", got, -us(5))
	}
}

// For a chain, the layer rows plus the unattributed row equal the root.
func TestChainLedgerSumsToRoot(t *testing.T) {
	var spans []span
	id := int64(0)
	add := func(s span) int64 { id++; s.ID = id; spans = append(spans, s); return id }
	// Three requests of a client > server > facade chain with a peeled shard
	// and two parallel peeled cores, with different timings each.
	for r := int64(1); r <= 3; r++ {
		base := us(1000 * r)
		c := add(span{Req: r, Layer: "client", Start: base, End: base + us(100+10*r)})
		s := add(span{Parent: c, Req: r, Layer: "server", Start: base + us(20), End: base + us(80+5*r)})
		f := add(span{Parent: s, Req: r, Layer: "facade", Start: base + us(30), End: base + us(70+2*r)})
		sh := add(span{Parent: f, Req: r, Layer: "shard", Peeled: true, Start: base + us(200), End: base + us(230+r)})
		add(span{Parent: sh, Req: r, Layer: "core", Peeled: true, Start: base + us(300), End: base + us(310)})
		add(span{Parent: sh, Req: r, Layer: "core", Peeled: true, Start: base + us(320), End: base + us(340+r)})
	}
	layers, root, unattributed := chainLedger(spans)
	if root != 120 { // median of 110, 120, 130
		t.Errorf("root = %v, want 120", root)
	}
	sum := unattributed
	for _, v := range layers {
		sum += v
	}
	if diff := sum - root; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("layers + unattributed = %v, root = %v", sum, root)
	}
	// Request 2 is the median request of every layer, so the rows are its
	// self times; core counts once, by its slowest parallel part.
	want := map[string]float64{"client": 50, "server": 26, "facade": 12, "shard": 10, "core": 22}
	for layer, w := range want {
		if layers[layer] != w {
			t.Errorf("layer %s = %v, want %v", layer, layers[layer], w)
		}
	}
}

func TestRecorderReservesIDs(t *testing.T) {
	rec := newRecorder()
	sb := rec.buf(4)
	a := sb.beginN(0, rec.req(), "client", "x", 2)
	b := sb.begin(0, rec.req(), "client", "y", false)
	if sb.spans[a].ID != 1 || sb.spans[b].ID != 4 {
		t.Errorf("ids = %d, %d; want 1 and 4 (2 and 3 reserved)", sb.spans[a].ID, sb.spans[b].ID)
	}
	if sb.spans[a].Req == sb.spans[b].Req {
		t.Error("two requests share an id")
	}
}
