// Package vafile implements the paper's future-work direction ("we plan to
// investigate the storage of probabilistic feature vectors using paradigms
// different from hierarchical index structures such as vector
// approximation"): a VA-file-style scalar-quantized filter over the
// parameter space (μᵢ, σᵢ) of probabilistic feature vectors.
//
// Every stored pfv is approximated by the grid cell of its 2d parameters
// (equi-depth quantization, one byte per parameter). A cell is a small
// parameter-space rectangle, so the Gauss-tree's hull and floor bounds
// (Lemmas 2 and 3) bound the joint density of the exact object from the
// approximation alone: each approximation page's cells form one block of
// boxes for pfv's batch kernel (Boxes.LogBounds), the kernel that bounds the
// tree's child boxes. Queries scan the compact approximation file
// sequentially (a fraction of the data size), prune with the cell bounds,
// and fetch only surviving candidates from the full data file — the
// VA-SSA-style two-phase algorithm adapted to identification queries.
package vafile

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/pqueue"
	"github.com/gauss-tree/gausstree/internal/query"
	"github.com/gauss-tree/gausstree/internal/scan"
)

// cells is the number of quantization cells per parameter (one byte each).
const cells = 256

// approxHeaderSize is the per-page header of the approximation file.
const approxHeaderSize = 2

// File is a VA-file over a sequential data file of pfv.
type File struct {
	mgr      *pagefile.Manager
	data     *scan.File
	dim      int
	combiner gaussian.Combiner
	// muGrid and sigmaGrid hold, per dimension, the cell boundaries
	// (cells+1 ascending values, equi-depth over the data distribution).
	muGrid, sigmaGrid [][]float64
	pages             []pagefile.PageID
	count             int
	perPage           int
}

var _ query.Engine = (*File)(nil)

// entrySize is the encoded approximation size for one vector.
func entrySize(dim int) int { return 6 + 2*dim }

// Build constructs the VA-file for an existing data file, reading it once to
// derive equi-depth grids and once more to emit approximations. The
// approximation pages are allocated from the same page manager, so page
// accesses of filter and refinement steps are accounted together.
func Build(mgr *pagefile.Manager, data *scan.File, combiner gaussian.Combiner) (*File, error) {
	dim := data.Dim()
	f := &File{
		mgr:      mgr,
		data:     data,
		dim:      dim,
		combiner: combiner,
		perPage:  (mgr.PageSize() - approxHeaderSize) / entrySize(dim),
	}
	if f.perPage < 1 {
		return nil, fmt.Errorf("vafile: page size %d too small for dimension %d", mgr.PageSize(), dim)
	}

	// Pass 1: collect per-dimension value distributions, then replace each by
	// its equi-depth grid.
	if data.Len() == 0 {
		return f, nil
	}
	pages := len(data.Pages())
	f.muGrid, f.sigmaGrid = make([][]float64, dim), make([][]float64, dim)
	for pi := 0; pi < pages; pi++ {
		cols, err := data.PageColumns(pi, nil)
		if err != nil {
			return nil, err
		}
		for j := 0; j < dim; j++ {
			f.muGrid[j] = append(f.muGrid[j], cols.Mean[j]...)
			f.sigmaGrid[j] = append(f.sigmaGrid[j], cols.Sigma[j]...)
		}
	}
	for j := 0; j < dim; j++ {
		f.muGrid[j], f.sigmaGrid[j] = equiDepthGrid(f.muGrid[j]), equiDepthGrid(f.sigmaGrid[j])
	}

	// Pass 2: emit approximations in data order.
	var buf []byte
	var pageCount int
	flush := func() error {
		if pageCount == 0 {
			return nil
		}
		binary.LittleEndian.PutUint16(buf, uint16(pageCount))
		id, err := f.mgr.Allocate()
		if err != nil {
			return err
		}
		if err := f.mgr.Write(id, buf); err != nil {
			return err
		}
		f.pages = append(f.pages, id)
		buf = buf[:approxHeaderSize]
		clear(buf)
		pageCount = 0
		return nil
	}
	buf = make([]byte, approxHeaderSize, f.mgr.PageSize())
	for pi := 0; pi < pages; pi++ {
		cols, err := data.PageColumns(pi, nil)
		if err != nil {
			return nil, err
		}
		for slot := range cols.IDs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(pi))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(slot))
			for j := 0; j < dim; j++ {
				buf = append(buf, cellOf(f.muGrid[j], cols.Mean[j][slot]), cellOf(f.sigmaGrid[j], cols.Sigma[j][slot]))
			}
			pageCount++
			f.count++
			if pageCount == f.perPage {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return f, nil
}

// equiDepthGrid returns cells+1 ascending boundaries covering the values.
func equiDepthGrid(vals []float64) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	grid := make([]float64, cells+1)
	for c := 0; c <= cells; c++ {
		idx := c * (len(sorted) - 1) / cells
		grid[c] = sorted[idx]
	}
	// Boundaries must be non-decreasing and the extremes inclusive.
	grid[0] = sorted[0]
	grid[cells] = sorted[len(sorted)-1]
	return grid
}

// cellOf returns the cell index of a value (boundary grid binary search).
func cellOf(grid []float64, v float64) byte {
	lo, hi := 0, cells-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if grid[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return byte(lo)
}

// Name identifies the VA-file in engine-agnostic reports.
func (f *File) Name() string { return "va-file" }

// Len returns the number of approximated vectors.
func (f *File) Len() int { return f.count }

// filter scans the approximation file, checking the context once per
// approximation page, charging accesses to the per-query counter and
// counting scanned pages into stats.NodesVisited. Each page's cells are
// parameter boxes (cell c of dimension j is [grid[j][c], grid[j][c+1]] in μ
// and in σ), bounded in one call of the batch kernel; fn receives every
// object with its cell's log floor and hull.
func (f *File) filter(ctx context.Context, q pfv.Vector, c *pagefile.Counter, stats *query.Stats, fn func(cand)) error {
	esz, per := entrySize(f.dim), f.perPage
	buf := make([]float64, 4*(f.dim+1)*per) // the page's boxes, then hull, floor and the kernel's scratch
	for _, id := range f.pages {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := f.mgr.ReadCounted(id, c)
		if err != nil {
			return err
		}
		stats.NodesVisited++
		n := int(binary.LittleEndian.Uint16(page))
		boxes := pfv.Boxes{N: n, Data: buf}
		for j := 0; j < f.dim; j++ {
			muLo, muHi, sgLo, sgHi := boxes.Dim(j)
			mg, sg := f.muGrid[j], f.sigmaGrid[j]
			for e, off := 0, approxHeaderSize+6+2*j; e < n; e, off = e+1, off+esz {
				mc, sc := int(page[off]), int(page[off+1])
				muLo[e], muHi[e], sgLo[e], sgHi[e] = mg[mc], mg[mc+1], sg[sc], sg[sc+1]
			}
		}
		hull, floor := buf[4*f.dim*per:][:n], buf[(4*f.dim+1)*per:][:n]
		boxes.LogBounds(f.combiner, q, math.Inf(1), hull, floor, buf[(4*f.dim+2)*per:])
		for e, off := 0, approxHeaderSize; e < n; e, off = e+1, off+esz {
			fn(cand{binary.LittleEndian.Uint32(page[off:]), binary.LittleEndian.Uint16(page[off+4:]), floor[e], hull[e]})
		}
	}
	return nil
}

// cand is one approximated object surviving the filter phase.
type cand struct {
	pageOrdinal uint32
	slot        uint16
	logFloor    float64
	logHull     float64
}

// KMLIQ answers a k-most-likely identification query with the two-phase
// VA algorithm: phase 1 scans the approximations, keeping the k best cell
// floor bounds and every object whose cell hull bound could still beat
// them; phase 2 fetches candidates from the data file in descending
// hull-bound order until the k-th exact density dominates the next bound.
// Probabilities are certified against denominator bounds assembled from the
// cell bounds of unfetched objects — the engine reports whatever interval
// that yields, so the accuracy parameter is ignored. No false dismissals
// occur.
func (f *File) KMLIQ(ctx context.Context, q pfv.Vector, k int, _ float64) ([]query.Result, query.Stats, error) {
	return f.kmliq(ctx, q, k, true)
}

// KMLIQRanked answers a k-MLIQ without probability values: the same
// two-phase filter-and-refine as KMLIQ — the page cost is identical — but
// without assembling denominator bounds. Results carry log densities and
// NaN probabilities.
func (f *File) KMLIQRanked(ctx context.Context, q pfv.Vector, k int) ([]query.Result, query.Stats, error) {
	return f.kmliq(ctx, q, k, false)
}

func (f *File) kmliq(ctx context.Context, q pfv.Vector, k int, withProbs bool) ([]query.Result, query.Stats, error) {
	if q.Dim() != f.dim {
		return nil, query.Stats{}, fmt.Errorf("vafile: query dimension %d, file dimension %d", q.Dim(), f.dim)
	}
	if k <= 0 {
		return nil, query.Stats{}, fmt.Errorf("vafile: k must be positive, got %d", k)
	}
	if f.count == 0 {
		return []query.Result{}, query.Stats{}, nil
	}

	var counter pagefile.Counter
	var stats query.Stats
	finish := func(retained int) query.Stats {
		stats.PageAccesses = counter.LogicalReads()
		stats.CandidatesRetained = retained
		return stats
	}

	// Phase 1: filter.
	floorTop := pqueue.NewTopK[struct{}](k)
	all := make([]cand, 0, f.count)
	if err := f.filter(ctx, q, &counter, &stats, func(c cand) {
		floorTop.Offer(struct{}{}, c.logFloor)
		all = append(all, c)
	}); err != nil {
		return nil, finish(0), err
	}
	delta := math.Inf(-1)
	if b, ok := floorTop.Bound(); ok {
		delta = b
	}
	cands := make([]cand, 0, 64)
	var restFloor, restHull gaussian.LogSum // denominator part of filtered-out objects
	for _, c := range all {
		if c.logHull >= delta {
			cands = append(cands, c)
		} else if withProbs {
			restFloor.Add(c.logFloor)
			restHull.Add(c.logHull)
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].logHull > cands[b].logHull })

	// Phase 2: refine in descending hull order.
	ev := pfv.NewJointEvaluator(f.combiner, q)
	top := pqueue.NewTopK[query.Hit](k)
	var exactSum gaussian.LogSum
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, finish(top.Len()), err
		}
		if bound, ok := top.Bound(); ok && bound >= c.logHull {
			// Remaining candidates cannot enter the result; their bounds
			// join the denominator estimate.
			stats.EarlyTermination = true
			if withProbs {
				for _, r := range cands[i:] {
					restFloor.Add(r.logFloor)
					restHull.Add(r.logHull)
				}
			}
			break
		}
		h, err := f.fetch(c, &ev, &counter)
		if err != nil {
			return nil, finish(top.Len()), err
		}
		if withProbs {
			exactSum.Add(h.LogDensity)
		}
		top.Offer(h, h.LogDensity)
		stats.VectorsScored++
	}

	denomLow := gaussian.LogAddExp(exactSum.Log(), restFloor.Log())
	denomHigh := gaussian.LogAddExp(exactSum.Log(), restHull.Log())
	out := make([]query.Result, 0, top.Len())
	for _, h := range top.Sorted() {
		r := h.Result(math.NaN())
		if withProbs {
			r = query.Certified(r.Vector, h.LogDensity, denomLow, denomHigh)
		}
		out = append(out, r)
	}
	return out, finish(len(out)), nil
}

// fetch reads a candidate's data page (a random access charged to counter)
// and scores the candidate straight from the page's columns.
func (f *File) fetch(c cand, ev *pfv.JointEvaluator, counter *pagefile.Counter) (query.Hit, error) {
	cols, err := f.data.PageColumns(int(c.pageOrdinal), counter)
	if err != nil {
		return query.Hit{}, err
	}
	j := int(c.slot)
	if j >= cols.Len() {
		return query.Hit{}, fmt.Errorf("vafile: slot %d out of range [0,%d)", j, cols.Len())
	}
	return query.Hit{Cols: cols, J: j, LogDensity: ev.LogDensityAt(cols, j)}, nil
}

// TIQ answers a threshold identification query: phase 1 bounds every
// object's density and the total denominator from the approximations; every
// object whose best-case probability reaches the threshold is fetched and
// refined. No false dismissals occur; reported probabilities carry whatever
// certified interval the cell bounds give (the accuracy parameter is
// ignored).
func (f *File) TIQ(ctx context.Context, q pfv.Vector, pTheta float64, _ float64) ([]query.Result, query.Stats, error) {
	if q.Dim() != f.dim {
		return nil, query.Stats{}, fmt.Errorf("vafile: query dimension %d, file dimension %d", q.Dim(), f.dim)
	}
	if !(pTheta >= 0 && pTheta <= 1) {
		return nil, query.Stats{}, fmt.Errorf("vafile: threshold %v outside [0,1]", pTheta)
	}
	if f.count == 0 {
		return []query.Result{}, query.Stats{}, nil
	}
	var counter pagefile.Counter
	var stats query.Stats
	finish := func(retained int) query.Stats {
		stats.PageAccesses = counter.LogicalReads()
		stats.CandidatesRetained = retained
		return stats
	}
	var all []cand
	var floorSum gaussian.LogSum
	if err := f.filter(ctx, q, &counter, &stats, func(c cand) {
		floorSum.Add(c.logFloor)
		all = append(all, c)
	}); err != nil {
		return nil, finish(0), err
	}
	// Best-case probability of an object: hull / (floor-based denominator
	// where the object itself contributes its hull).
	denomFloor := floorSum.Log()
	var cands []cand
	var restFloor, restHull gaussian.LogSum
	for _, c := range all {
		bestP := math.Exp(c.logHull - denomFloor)
		if bestP >= pTheta {
			cands = append(cands, c)
		} else {
			stats.EarlyTermination = true // at least one object never fetched
			restFloor.Add(c.logFloor)
			restHull.Add(c.logHull)
		}
	}
	var exactSum gaussian.LogSum
	ev := pfv.NewJointEvaluator(f.combiner, q)
	fetched := make([]query.Hit, 0, len(cands))
	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, finish(len(fetched)), err
		}
		h, err := f.fetch(c, &ev, &counter)
		if err != nil {
			return nil, finish(len(fetched)), err
		}
		exactSum.Add(h.LogDensity)
		fetched = append(fetched, h)
		stats.VectorsScored++
	}
	denomLow := gaussian.LogAddExp(exactSum.Log(), restFloor.Log())
	denomHigh := gaussian.LogAddExp(exactSum.Log(), restHull.Log())
	var out []query.Result
	for _, h := range fetched {
		if _, hi := query.ProbInterval(h.LogDensity, denomLow, denomHigh); hi >= pTheta {
			out = append(out, query.Certified(h.Cols.Vector(h.J), h.LogDensity, denomLow, denomHigh))
		}
	}
	query.SortByProbability(out)
	return query.NonNil(out), finish(len(out)), nil
}
