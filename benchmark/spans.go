package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one benchmark-side measurement of a call into a layer. Spans of
// one request share req. parent is the id of the span that caused this one
// (0 for a root).
//
// Two kinds of child exist. A nested child ran inside its parent's
// interval (the server handler inside the client call). A peeled child is
// a re-execution of the parent's inner call at the next depth, made by the
// benchmark right after the parent returned, because the program offers no
// seam to time that depth in place; only its duration is meaningful.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Peeled bool   `json:"peeled,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	// Counts taken at the same boundary (deltas over the span).
	Pages    uint64 `json:"pages,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Scored   int    `json:"scored,omitempty"`
	Physical uint64 `json:"physical_reads,omitempty"`
	Writes   uint64 `json:"page_writes,omitempty"`
	Fsyncs   uint64 `json:"wal_fsyncs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder hands out span ids and owns the time origin. Each goroutine
// appends to its own spanBuf, so recording takes no lock.
type recorder struct {
	origin  time.Time
	nextID  atomic.Int64
	nextReq atomic.Int64
	bufs    []*spanBuf
}

// req returns a fresh request id; the spans of one request share it.
func (r *recorder) req() int64 { return r.nextReq.Add(1) }

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// buf returns a new per-goroutine buffer with room for n spans. Call it
// before the goroutines start.
func (r *recorder) buf(n int) *spanBuf {
	b := &spanBuf{rec: r, spans: make([]span, 0, n)}
	r.bufs = append(r.bufs, b)
	return b
}

func (r *recorder) all() []span {
	var out []span
	for _, b := range r.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

type spanBuf struct {
	rec   *recorder
	spans []span
}

// begin opens a span and returns its index in the buffer.
func (b *spanBuf) begin(parent, req int64, layer, name string, peeled bool) int {
	i := b.beginN(parent, req, layer, name, 0)
	b.spans[i].Peeled = peeled
	return i
}

// beginN opens a span and reserves the next extra ids after
// its own for descendants recorded on other goroutines.
func (b *spanBuf) beginN(parent, req int64, layer, name string, extra int64) int {
	id := b.rec.nextID.Add(1+extra) - extra
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: int64(time.Since(b.rec.origin)),
	})
	return len(b.spans) - 1
}

// end closes the span at index i and returns it for count annotation.
func (b *spanBuf) end(i int) *span {
	s := &b.spans[i]
	s.End = int64(time.Since(b.rec.origin))
	return s
}

// selfTimes returns each span's self time in nanoseconds, keyed by span id:
// its duration, minus the part of its interval that nested children cover
// (overlapping children are counted once), minus the longest peeled child
// (parallel parts finish when the slowest does). Self times are signed: a
// peeled re-execution can by noise run longer than the call it re-executes,
// and clamping would stop a chain's self times from summing to its root.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self := s.dur()
		var nested []span
		var peeled int64
		for _, c := range children[s.ID] {
			if c.Peeled {
				if d := c.dur(); d > peeled {
					peeled = d
				}
				continue
			}
			nested = append(nested, c)
		}
		sort.Slice(nested, func(i, j int) bool { return nested[i].Start < nested[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range nested {
			lo, hi := c.Start, c.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = self - covered - peeled
	}
	return out
}

// chainLedger folds spans into one row per layer: the median, over
// requests, of the layer's self time summed within the request. It also
// returns the median duration of the root spans, and what the layer rows do
// not account for (root median minus the sum of layer medians).
func chainLedger(spans []span) (layerUS map[string]float64, rootUS, unattributedUS float64) {
	self := selfTimes(spans)
	perReq := make(map[string]map[int64]int64) // layer -> req -> self ns
	var roots []float64
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, float64(s.dur())/1e3)
		}
		m := perReq[s.Layer]
		if m == nil {
			m = make(map[int64]int64)
			perReq[s.Layer] = m
		}
		if s.Peeled {
			// Parallel peeled siblings of one layer count once, by the
			// slowest, as in selfTimes.
			if cur, ok := m[s.Req]; !ok || self[s.ID] > cur {
				m[s.Req] = self[s.ID]
			}
			continue
		}
		m[s.Req] += self[s.ID]
	}
	layerUS = make(map[string]float64, len(perReq))
	sum := 0.0
	for layer, m := range perReq {
		xs := make([]float64, 0, len(m))
		for _, ns := range m {
			xs = append(xs, float64(ns)/1e3)
		}
		layerUS[layer] = median(xs)
		sum += layerUS[layer]
	}
	rootUS = median(roots)
	return layerUS, rootUS, rootUS - sum
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type row struct {
		Workload string `json:"workload"`
		span
	}
	for _, s := range spans {
		if err := enc.Encode(row{workload, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
