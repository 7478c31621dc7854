// Package scan implements the paper's baseline query processor: identification
// queries on top of a sequential scan over an unordered paged file of
// probabilistic feature vectors (§4). The k-MLIQ needs a single scan that
// simultaneously maintains the k best candidates and the Bayes denominator;
// the TIQ needs two scans — one to establish the total probability mass,
// one to report every object above the threshold.
//
// The file lives on the same pagefile substrate as the index structures, so
// the page-access and seek counts of all competitors are comparable, and it
// implements the same query.Engine interface, so the evaluation harness
// drives it interchangeably with the index structures.
package scan

import (
	"context"
	"encoding/binary"
	"fmt"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/pqueue"
	"github.com/gauss-tree/gausstree/internal/query"
)

// pageHeaderSize is the per-page header: a little-endian uint16 entry count.
const pageHeaderSize = 2

// File is a sequential file of fixed-dimension probabilistic feature
// vectors, packed into pages. It is safe for concurrent readers; Append
// requires external exclusion.
type File struct {
	mgr      *pagefile.Manager
	dim      int
	perPage  int
	combiner gaussian.Combiner
	pages    []pagefile.PageID
	count    int
	// lastUsed is the entry count of the final page, so appends do not
	// re-read it.
	lastUsed int
	// decode is decodePage bound to the file's dimension, in the shape the
	// page manager's decoded reads take: a page's vectors are its one cached
	// form, dropped with the page cache like the index structures' nodes.
	decode pagefile.DecodeFunc
}

var _ query.Engine = (*File)(nil)

// Create initializes an empty sequential file for vectors of the given
// dimension on the provided page manager. The combiner is the σ-combination
// rule used by this file's identification queries.
func Create(mgr *pagefile.Manager, dim int, combiner gaussian.Combiner) (*File, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("scan: invalid dimension %d", dim)
	}
	perPage := (mgr.PageSize() - pageHeaderSize) / pfv.EncodedSize(dim)
	if perPage < 1 {
		return nil, fmt.Errorf("scan: page size %d too small for dimension %d", mgr.PageSize(), dim)
	}
	return &File{
		mgr:      mgr,
		dim:      dim,
		perPage:  perPage,
		combiner: combiner,
		decode:   func(_ pagefile.PageID, page []byte) (any, error) { return decodePage(page, dim) },
	}, nil
}

// Name identifies the sequential scan in engine-agnostic reports.
func (f *File) Name() string { return "seq-scan" }

// Dim returns the dimensionality of the stored vectors.
func (f *File) Dim() int { return f.dim }

// Len returns the number of stored vectors.
func (f *File) Len() int { return f.count }

// Pages returns the file's data pages in scan order.
func (f *File) Pages() []pagefile.PageID {
	return append([]pagefile.PageID(nil), f.pages...)
}

// Append adds a vector to the end of the file.
func (f *File) Append(v pfv.Vector) error {
	if v.Dim() != f.dim {
		return fmt.Errorf("scan: vector dimension %d, file dimension %d", v.Dim(), f.dim)
	}
	if len(f.pages) == 0 || f.lastUsed >= f.perPage {
		id, err := f.mgr.Allocate()
		if err != nil {
			return err
		}
		if err := f.mgr.Write(id, encodePage(nil, f.dim)); err != nil {
			return err
		}
		f.pages = append(f.pages, id)
		f.lastUsed = 0
	}
	last := f.pages[len(f.pages)-1]
	vs, err := f.readPage(last, nil)
	if err != nil {
		return err
	}
	vs = append(vs[:len(vs):len(vs)], v)
	if err := f.mgr.WriteDecoded(last, encodePage(vs, f.dim), vs); err != nil {
		return err
	}
	f.lastUsed = len(vs)
	f.count++
	return nil
}

// readPage returns the decoded vectors of one page, shared with the page
// cache and immutable, charging the logical page access (to the per-query
// counter too, when non-nil).
func (f *File) readPage(id pagefile.PageID, c *pagefile.Counter) ([]pfv.Vector, error) {
	vs, err := f.mgr.ReadDecoded(id, c, f.decode)
	if err != nil {
		return nil, err
	}
	return vs.([]pfv.Vector), nil
}

// AppendAll adds a batch of vectors.
func (f *File) AppendAll(vs []pfv.Vector) error {
	for _, v := range vs {
		if err := f.Append(v); err != nil {
			return err
		}
	}
	return nil
}

// ForEach scans the file in storage order, invoking fn for every vector.
// Iteration stops early if fn returns an error, which is propagated.
func (f *File) ForEach(fn func(pfv.Vector) error) error {
	return f.forEach(context.Background(), nil, fn)
}

// forEach is ForEach with context checks (once per page) and per-query
// page-access attribution.
func (f *File) forEach(ctx context.Context, c *pagefile.Counter, fn func(pfv.Vector) error) error {
	for _, id := range f.pages {
		if err := ctx.Err(); err != nil {
			return err
		}
		vs, err := f.readPage(id, c)
		if err != nil {
			return err
		}
		for _, v := range vs {
			if err := fn(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// ForEachLocated scans the file like ForEach but also reports each vector's
// physical position (page ordinal within the file and slot within the page),
// which approximation structures such as the VA-file record for later
// random fetches.
func (f *File) ForEachLocated(fn func(v pfv.Vector, pageOrdinal, slot int) error) error {
	for pi, id := range f.pages {
		vs, err := f.readPage(id, nil)
		if err != nil {
			return err
		}
		for si, v := range vs {
			if err := fn(v, pi, si); err != nil {
				return err
			}
		}
	}
	return nil
}

// VectorAtCounted fetches one vector by its physical position (a random page
// access plus an in-page slot lookup), charging the page access to a
// per-query counter.
func (f *File) VectorAtCounted(pageOrdinal, slot int, c *pagefile.Counter) (pfv.Vector, error) {
	if pageOrdinal < 0 || pageOrdinal >= len(f.pages) {
		return pfv.Vector{}, fmt.Errorf("scan: page ordinal %d out of range [0,%d)", pageOrdinal, len(f.pages))
	}
	vs, err := f.readPage(f.pages[pageOrdinal], c)
	if err != nil {
		return pfv.Vector{}, err
	}
	if slot < 0 || slot >= len(vs) {
		return pfv.Vector{}, fmt.Errorf("scan: slot %d out of range [0,%d)", slot, len(vs))
	}
	return vs[slot], nil
}

// encodePage serializes up to perPage vectors into one page image.
func encodePage(vs []pfv.Vector, dim int) []byte {
	buf := make([]byte, pageHeaderSize, pageHeaderSize+len(vs)*pfv.EncodedSize(dim))
	binary.LittleEndian.PutUint16(buf, uint16(len(vs)))
	for _, v := range vs {
		buf = pfv.AppendBinary(buf, v)
	}
	return buf
}

// decodePage parses a page image into its vectors.
func decodePage(page []byte, dim int) ([]pfv.Vector, error) {
	if len(page) < pageHeaderSize {
		return nil, fmt.Errorf("scan: truncated page")
	}
	n := int(binary.LittleEndian.Uint16(page))
	out := make([]pfv.Vector, 0, n)
	off := pageHeaderSize
	for i := 0; i < n; i++ {
		v, used, err := pfv.DecodeBinary(page[off:], dim)
		if err != nil {
			return nil, fmt.Errorf("scan: entry %d: %w", i, err)
		}
		out = append(out, v)
		off += used
	}
	return out, nil
}

// KMLIQ answers a k-most-likely identification query (Definition 3) with a
// single sequential scan: it keeps the k highest-density candidates in a
// bounded heap while accumulating the Bayes denominator Σ_w p(q|w) in log
// space, then converts the survivors' densities into exact probabilities —
// the accuracy parameter of query.Engine is therefore ignored. Results are
// ordered by descending probability.
func (f *File) KMLIQ(ctx context.Context, q pfv.Vector, k int, _ float64) ([]query.Result, query.Stats, error) {
	return f.kmliq(ctx, q, k, true)
}

// KMLIQRanked answers a k-MLIQ without probability values: the same single
// scan as KMLIQ, skipping the denominator bookkeeping. Results carry log
// densities and NaN probabilities, matching the ranked queries of the index
// engines; the page cost is identical to KMLIQ because a scan reads
// everything either way.
func (f *File) KMLIQRanked(ctx context.Context, q pfv.Vector, k int) ([]query.Result, query.Stats, error) {
	return f.kmliq(ctx, q, k, false)
}

func (f *File) kmliq(ctx context.Context, q pfv.Vector, k int, withProbs bool) ([]query.Result, query.Stats, error) {
	if err := f.checkQuery(q, k); err != nil {
		return nil, query.Stats{}, err
	}
	var counter pagefile.Counter
	var stats query.Stats
	out, err := query.ExactKMLIQ(k, withProbs, f.scored(ctx, q, &counter, &stats))
	stats.PageAccesses = counter.LogicalReads()
	stats.CandidatesRetained = len(out)
	return out, stats, err
}

// scored is one scan of the file as a refinement pass: every stored vector
// with its joint log density against q, pages charged to c and evaluations
// to stats.
func (f *File) scored(ctx context.Context, q pfv.Vector, c *pagefile.Counter, stats *query.Stats) query.Scored {
	return func(yield func(pfv.Vector, float64)) error {
		return f.forEach(ctx, c, func(v pfv.Vector) error {
			stats.VectorsScored++
			yield(v, pfv.JointLogDensity(f.combiner, v, q))
			return nil
		})
	}
}

// TIQ answers a threshold identification query (Definition 2) with the
// paper's two-scan algorithm: the first scan establishes the total relative
// probability mass, the second reports every object whose posterior reaches
// the threshold. Probabilities are exact, so the accuracy parameter is
// ignored. Results are ordered by descending probability.
func (f *File) TIQ(ctx context.Context, q pfv.Vector, pTheta float64, _ float64) ([]query.Result, query.Stats, error) {
	if err := f.checkQuery(q, 1); err != nil {
		return nil, query.Stats{}, err
	}
	if !(pTheta >= 0 && pTheta <= 1) {
		return nil, query.Stats{}, fmt.Errorf("scan: threshold %v outside [0,1]", pTheta)
	}
	var counter pagefile.Counter
	var stats query.Stats
	out, err := query.ExactTIQ(pTheta, f.scored(ctx, q, &counter, &stats))
	stats.PageAccesses = counter.LogicalReads()
	stats.CandidatesRetained = len(out)
	return out, stats, err
}

// NearestNeighbors answers a conventional k-nearest-neighbor query on the
// mean vectors using the Euclidean distance, ignoring all uncertainty
// information — the Figure 6 baseline. Results are ordered by ascending
// distance; Probability fields are left zero because the conventional model
// does not define them. LogDensity carries the negated distance so callers
// can rank.
func (f *File) NearestNeighbors(q pfv.Vector, k int) ([]query.Result, error) {
	if err := f.checkQuery(q, k); err != nil {
		return nil, err
	}
	top := pqueue.NewTopK[pfv.Vector](k)
	if err := f.ForEach(func(v pfv.Vector) error {
		top.Offer(v, -pfv.EuclideanDistance(v, q))
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]query.Result, 0, top.Len())
	for _, v := range top.Sorted() {
		out = append(out, query.Result{Vector: v, LogDensity: -pfv.EuclideanDistance(v, q)})
	}
	return out, nil
}

func (f *File) checkQuery(q pfv.Vector, k int) error {
	if q.Dim() != f.dim {
		return fmt.Errorf("scan: query dimension %d, file dimension %d", q.Dim(), f.dim)
	}
	if k <= 0 {
		return fmt.Errorf("scan: k must be positive, got %d", k)
	}
	return nil
}
