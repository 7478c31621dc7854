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
// drives it interchangeably with the index structures. Its pages hold the
// Gauss-tree's columnar leaf body and are scored by the same batch kernel.
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
// The columnar body (pfv.AppendColumns, without −ln∏σ terms) follows it.
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
	// lastUsed is the entry count of the final page, so appends know when
	// to start a new one.
	lastUsed int
	// decode turns a page into its *pfv.Columns, in the shape the page
	// manager's decoded reads take: a page's columns are cached beside its
	// image and dropped with it, like the index structures' nodes.
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
		decode: func(id pagefile.PageID, page []byte) (any, error) {
			if len(page) < pageHeaderSize {
				return nil, fmt.Errorf("scan: truncated page %d", id)
			}
			cols, err := pfv.DecodeColumns(page[pageHeaderSize:], dim, int(binary.LittleEndian.Uint16(page)), false)
			if err != nil {
				return nil, fmt.Errorf("scan: page %d: %w", id, err)
			}
			return cols, nil
		},
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

// Append adds a copy of a vector to the end of the file.
func (f *File) Append(v pfv.Vector) error {
	if v.Dim() != f.dim {
		return fmt.Errorf("scan: vector dimension %d, file dimension %d", v.Dim(), f.dim)
	}
	var vs []pfv.Vector
	if len(f.pages) == 0 || f.lastUsed >= f.perPage {
		id, err := f.mgr.Allocate()
		if err != nil {
			return err
		}
		f.pages = append(f.pages, id)
		f.lastUsed = 0
	} else {
		last, err := f.readPage(f.pages[len(f.pages)-1], nil)
		if err != nil {
			return err
		}
		vs = last.Vectors()
	}
	cols := pfv.ColumnsOf(append(vs, v), f.dim)
	page := make([]byte, pageHeaderSize, pageHeaderSize+pfv.ColumnsSize(f.dim, cols.Len(), false))
	binary.LittleEndian.PutUint16(page, uint16(cols.Len()))
	if err := f.mgr.WriteDecoded(f.pages[len(f.pages)-1], pfv.AppendColumns(page, cols, false), f.decode); err != nil {
		return err
	}
	f.lastUsed = cols.Len()
	f.count++
	return nil
}

// readPage returns the decoded columns of one page, shared with the page
// cache and immutable, charging the logical page access (to the per-query
// counter too, when non-nil).
func (f *File) readPage(id pagefile.PageID, c *pagefile.Counter) (*pfv.Columns, error) {
	cols, err := f.mgr.ReadDecoded(id, c, pagefile.Pin{}, f.decode)
	if err != nil {
		return nil, err
	}
	return cols.(*pfv.Columns), nil
}

// PageColumns returns the page at the given ordinal of the file (a random
// page access, charged to a per-query counter when non-nil) as its decoded
// columns. They are shared with the page cache: the caller reads them and
// copies out what it keeps.
func (f *File) PageColumns(pageOrdinal int, c *pagefile.Counter) (*pfv.Columns, error) {
	if pageOrdinal < 0 || pageOrdinal >= len(f.pages) {
		return nil, fmt.Errorf("scan: page ordinal %d out of range [0,%d)", pageOrdinal, len(f.pages))
	}
	return f.readPage(f.pages[pageOrdinal], c)
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

// ForEach scans the file in storage order, invoking fn with a fresh copy of
// every vector. Iteration stops early if fn returns an error, which is
// propagated.
func (f *File) ForEach(fn func(pfv.Vector) error) error {
	return f.scanPages(context.Background(), nil, func(cols *pfv.Columns) error {
		for j := range cols.IDs {
			if err := fn(cols.Vector(j)); err != nil {
				return err
			}
		}
		return nil
	})
}

// scanPages calls fn with every page's columns in storage order, checking the
// context once per page and charging page accesses to a per-query counter.
func (f *File) scanPages(ctx context.Context, c *pagefile.Counter, fn func(*pfv.Columns) error) error {
	for _, id := range f.pages {
		if err := ctx.Err(); err != nil {
			return err
		}
		cols, err := f.readPage(id, c)
		if err != nil {
			return err
		}
		if err := fn(cols); err != nil {
			return err
		}
	}
	return nil
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

// scored is one scan of the file as a refinement pass: every page's columns
// scored against q by the batch kernel, pages charged to c and evaluations
// to stats.
func (f *File) scored(ctx context.Context, q pfv.Vector, c *pagefile.Counter, stats *query.Stats) query.Scored {
	ev := pfv.NewJointEvaluator(f.combiner, q)
	scores := make([]float64, f.perPage)
	return func(yield func(*pfv.Columns, int, float64)) error {
		return f.scanPages(ctx, c, func(cols *pfv.Columns) error {
			ev.ScoreColumns(cols, scores)
			stats.VectorsScored += cols.Len()
			for j, ld := range scores[:cols.Len()] {
				yield(cols, j, ld)
			}
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
