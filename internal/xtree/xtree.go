// Package xtree implements the comparison baseline of the paper's
// efficiency evaluation (§6): an X-tree (Berchtold, Keim, Kriegel, VLDB'96)
// storing rectangular approximations of probabilistic feature vectors — the
// per-dimension 95% quantile boxes [μᵢ−z·σᵢ, μᵢ+z·σᵢ]. Identification
// queries are processed as a filter step (all data boxes intersecting the
// query's box) followed by a refinement step computing exact joint
// probabilities over the candidate set only. As the paper notes, this method
// permits false dismissals: an object whose box misses the query box is
// never considered, however probable it might be.
//
// The X-tree machinery follows the original design: R*-style topological
// splits, an overlap-minimal split guided by the split history when the
// topological split overlaps too much, and supernodes (multi-page directory
// nodes, chained through continuation pointers) when no balanced
// overlap-minimal split exists. Data pages hold the Gauss-tree's columnar
// leaf body; the filter tests quantile boxes and the refinement scores
// survivors straight from a page's columns.
package xtree

import (
	"errors"
	"fmt"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/rect"
)

// Config carries the X-tree's tunable policies.
type Config struct {
	// MaxOverlap is the largest tolerable overlap fraction of a topological
	// directory split before the overlap-minimal strategy kicks in
	// (default 0.2, the X-tree paper's recommendation).
	MaxOverlap float64
	// Combiner is the σ-combination rule used during refinement.
	Combiner gaussian.Combiner
}

const (
	// coverage is the quantile mass of the box approximation, the paper's
	// choice (§6).
	coverage = 0.95
	// minFanout is the smallest acceptable balance of an overlap-minimal
	// split, as a fraction of the entries (the X-tree paper's 35 %).
	minFanout = 0.35
)

func (c *Config) fillDefaults() {
	if c.MaxOverlap <= 0 {
		c.MaxOverlap = 0.2
	}
}

// Tree is an X-tree over quantile-box approximations of pfv. It is safe for
// concurrent readers; Insert requires external exclusion.
type Tree struct {
	mgr    *pagefile.Manager
	dim    int
	cfg    Config
	z      float64 // quantile factor: box = μ ± z·σ
	root   pagefile.PageID
	height int
	count  int

	perPageLeaf  int
	perPageInner int
	minLeaf      int
	minInner     int

	// decode is decodePage bound to the tree's dimension, in the shape the
	// page manager's decoded reads take: every page's decoded form — a data
	// page's is its columns — is cached beside its image, and a read
	// assembles the node from them (readNode).
	decode pagefile.DecodeFunc
}

// ErrDimension is returned on query/vector dimensionality mismatches.
var ErrDimension = errors.New("xtree: dimension mismatch")

// ErrInvalidArg is wrapped by argument-validation failures (non-positive
// k or dimension, thresholds outside [0,1]); test with errors.Is.
var ErrInvalidArg = errors.New("xtree: invalid argument")

// New creates an empty X-tree for vectors of the given dimension.
func New(mgr *pagefile.Manager, dim int, cfg Config) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("%w: invalid dimension %d", ErrInvalidArg, dim)
	}
	cfg.fillDefaults()
	perLeaf := (mgr.PageSize() - nodeHeaderSize) / leafEntrySize(dim)
	perInner := (mgr.PageSize() - nodeHeaderSize) / innerEntrySize(dim)
	if perLeaf < 2 || perInner < 2 {
		return nil, fmt.Errorf("xtree: page size %d too small for dimension %d", mgr.PageSize(), dim)
	}
	t := &Tree{
		mgr:          mgr,
		dim:          dim,
		cfg:          cfg,
		z:            gaussian.StdQuantile(0.5 + coverage/2),
		height:       1,
		perPageLeaf:  perLeaf,
		perPageInner: perInner,
		minLeaf:      max(1, perLeaf*2/5),
		minInner:     max(2, perInner*2/5),
		decode:       func(id pagefile.PageID, buf []byte) (any, error) { return decodePage(id, buf, dim) },
	}
	rootID, err := mgr.Allocate()
	if err != nil {
		return nil, err
	}
	t.root = rootID
	if err := t.writeNode(&node{id: rootID, leaf: true, pages: []pagefile.PageID{rootID}, cols: pfv.NewColumns(dim, 0)}); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of stored vectors.
func (t *Tree) Len() int { return t.count }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// boxOf returns the quantile-box approximation of a vector.
func (t *Tree) boxOf(v pfv.Vector) rect.Rect {
	lo, hi := v.QuantileBox(coverage, nil, nil)
	return rect.Rect{Lo: lo, Hi: hi}
}
