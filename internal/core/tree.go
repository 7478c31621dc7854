package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/wal"
)

// SplitObjective selects the cost function minimized by the median-split
// strategy of §5.3.
type SplitObjective uint8

const (
	// SplitHullIntegral minimizes the product over dimensions of the hull
	// integrals ∫ˆN(x)dx of the two resulting nodes — the paper's objective
	// extended multiplicatively to d dimensions (each factor is ≥ 1).
	SplitHullIntegral SplitObjective = iota
	// SplitHullIntegralSum adds the per-dimension integrals instead
	// (ablation A2a).
	SplitHullIntegralSum
	// SplitVolume minimizes the plain parameter-space volume, the
	// conventional R-tree objective (ablation A2b). It ignores the
	// asymmetry between μ and σ the paper's analysis motivates.
	SplitVolume
)

// String returns the objective's name.
func (s SplitObjective) String() string {
	switch s {
	case SplitHullIntegral:
		return "hull-integral"
	case SplitHullIntegralSum:
		return "hull-integral-sum"
	case SplitVolume:
		return "volume"
	default:
		return "unknown"
	}
}

// Config carries the tunable policies of a Gauss-tree.
type Config struct {
	// Combiner is the σ-combination rule for Lemma 1 (default: the paper's
	// additive rule).
	Combiner gaussian.Combiner
	// Split is the split objective (default: hull-integral product).
	Split SplitObjective
	// LeafFormat selects the on-page leaf encoding (default: exact
	// columnar float64). See LeafFormat for the accuracy guarantees of
	// the quantized variants. Any format reads any other format's pages;
	// the setting governs what (re)writes produce.
	LeafFormat LeafFormat
}

// probeFanout caps how many containment paths the insertion descent explores
// per node when several children contain the new vector (paper: "we follow
// all paths").
const probeFanout = 3

// Room where the writes land: a bulk-loaded leaf leaves capLeaf/bulkLeafSlack
// slots free (46 of 48 at d = 10); a non-root node keeps ≥ minFillPercent % of
// its capacity (the R-tree's m = 0.4·M), or its entries are re-inserted.
const bulkLeafSlack, minFillPercent = 24, 40

// Meta is the persistent description of a tree, sufficient to reattach it
// to a page manager with Open.
type Meta struct {
	Root   pagefile.PageID
	Dim    int
	Height int // 1 = the root is a leaf
	Count  int
	// AppliedLSN is the write-ahead-log sequence number covered by this
	// meta record: recovery replays only records with higher LSNs. Zero on
	// trees that never had a WAL attached.
	AppliedLSN uint64
}

// Tree is a Gauss-tree over a page manager. Queries are safe for any
// number of concurrent readers AND run concurrently with a mutation: each
// query pins the published snapshot (see snapshot.go) and never observes a
// mutation in progress. Mutating operations (Insert, Delete, BulkLoad)
// still require external exclusion against each other — the public façade
// package holds a writer lock around them — but not against readers.
type Tree struct {
	mgr    *pagefile.Manager
	dim    int
	cfg    Config
	root   pagefile.PageID
	height int
	count  int

	// snap is the published tree state read by lock-free queries; the
	// writer republishes it after every applied mutation (publish).
	snap atomic.Pointer[treeSnap]

	// wal, when attached (SetWAL), receives one logical record per applied
	// mutation; appliedLSN is the LSN covered by the last durable meta
	// commit, walSince counts records since that commit, and lastLSN is the
	// most recently logged LSN (read lock-free by WaitDurable).
	wal        *wal.Log
	appliedLSN uint64
	walSince   int
	lastLSN    atomic.Uint64

	capLeaf, minLeaf   int
	capInner, minInner int

	// failed records the first mid-mutation error. A partially applied
	// mutation leaves the in-memory tree (and pending page frees) out of
	// sync with the committed state, so letting a LATER mutation commit
	// could durably promote pages the on-disk tree still references.
	// Once set, every further mutation is refused; reopen from the page
	// store to recover the last committed state.
	failed error

	// decode is decodeNode bound to the tree's dimension, in the shape the
	// page manager's decoded reads take (built once, so a read allocates no
	// closure).
	decode pagefile.DecodeFunc

	// wpin is the writer's pin, held for the length of apply and guarded by
	// the writer lock: the nodes a mutation reads view page images that are
	// not recycled before it is released. Outside apply it is the zero Pin,
	// and what the writer reads escapes (pagefile's escape rule).
	wpin pagefile.Pin
}

// ErrDimension is returned when a vector's dimensionality does not match
// the tree's.
var ErrDimension = errors.New("core: dimension mismatch")

// ErrInvalidArg is wrapped by every argument-validation failure of the
// query and construction APIs (non-positive k, thresholds outside [0,1],
// non-positive dimensions). The public facade maps it onto its own
// sentinels; test with errors.Is.
var ErrInvalidArg = errors.New("core: invalid argument")

// ErrPoisoned is wrapped by every mutation refused because an earlier
// mutation failed mid-flight and disabled the tree (see Tree.fail). The
// committed snapshot is intact — queries keep answering from it — and no
// acknowledged write is lost: reopening the page store (replaying the WAL)
// recovers the last committed state. Test with errors.Is.
var ErrPoisoned = errors.New("core: tree poisoned")

// New creates an empty Gauss-tree for vectors of the given dimension and
// commits it, so an empty index is already recoverable by Open. A page
// store that already holds a committed index is rejected: New never
// clobbers existing data (reattach with Open instead).
func New(mgr *pagefile.Manager, dim int, cfg Config) (*Tree, error) {
	if mgr.Meta() != nil {
		return nil, fmt.Errorf("core: page store already holds a committed index (use Open)")
	}
	t, err := prepare(mgr, dim, cfg)
	if err != nil {
		return nil, err
	}
	root := &node{leaf: true}
	if err := t.persistNew(root); err != nil {
		return nil, err
	}
	t.root, t.height = root.id, 1
	if err := t.commitMeta(); err != nil {
		return nil, err
	}
	t.publish()
	return t, nil
}

// Open reattaches the tree committed in the manager's meta record: root
// page, dimension, height, vector count and the full build configuration
// (σ-combiner, split objective, leaf format) are restored from the last
// committed state. A store without a committed index yields ErrNoIndex.
func Open(mgr *pagefile.Manager) (*Tree, error) {
	raw := mgr.Meta()
	if raw == nil {
		return nil, ErrNoIndex
	}
	meta, cfg, err := decodeTreeMeta(raw)
	if err != nil {
		return nil, err
	}
	t, err := prepare(mgr, meta.Dim, cfg)
	if err != nil {
		return nil, err
	}
	t.root = meta.Root
	t.height = meta.Height
	t.count = meta.Count
	t.appliedLSN = meta.AppliedLSN
	t.lastLSN.Store(meta.AppliedLSN)
	t.publish()
	return t, nil
}

func prepare(mgr *pagefile.Manager, dim int, cfg Config) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("%w: invalid dimension %d", ErrInvalidArg, dim)
	}
	if cfg.LeafFormat > LeafGrid8 {
		return nil, fmt.Errorf("core: unknown leaf format %d", cfg.LeafFormat)
	}
	// The columnar leaf header (4 bytes) is the largest fixed leaf
	// overhead across formats; capacity is computed against it so every
	// format's page fits. (Quantized pages are strictly smaller than exact
	// ones.)
	capLeaf := (mgr.PageSize() - colHeaderSize) / leafEntrySize(dim)
	capInner := (mgr.PageSize() - nodeHeaderSize) / innerEntrySize(dim)
	minInner := max(2, capInner*minFillPercent/100)
	// A split must leave two halves of at least the minimum fill out of
	// capInner + 1 entries, which takes an inner capacity of 3.
	if capLeaf < 2 || 2*minInner > capInner+1 {
		smallest := max(colHeaderSize+2*leafEntrySize(dim), nodeHeaderSize+3*innerEntrySize(dim))
		return nil, fmt.Errorf("%w: page size %d too small for dimension %d (leaf capacity %d, inner capacity %d); the smallest that works is %d bytes",
			ErrInvalidArg, mgr.PageSize(), dim, capLeaf, capInner, smallest)
	}
	return &Tree{
		mgr:      mgr,
		dim:      dim,
		cfg:      cfg,
		capLeaf:  capLeaf,
		minLeaf:  max(1, capLeaf*minFillPercent/100),
		capInner: capInner,
		minInner: minInner,
		decode: func(id pagefile.PageID, page []byte) (any, error) {
			n, err := decodeNode(id, page, dim)
			if err != nil {
				return nil, err
			}
			return n, nil
		},
	}, nil
}

// mutable returns nil when the tree may be mutated, or the poisoning error
// from an earlier failed mutation. Public mutations check it after their
// input validation (validation failures touch no pages and do not poison).
// The returned error wraps both ErrPoisoned and the original cause, so
// errors.Is answers "is this tree poisoned?" and "what killed it?" alike.
func (t *Tree) mutable() error {
	if t.failed == nil {
		return nil
	}
	return fmt.Errorf("%w by an earlier failed mutation (reopen the page store to recover the last committed state): %w", ErrPoisoned, t.failed)
}

// fail poisons the tree with the first mid-mutation error and returns err.
//
// The page cache needs no flush: a mutation edits only its own clones and
// writes them to pages that were free when it began (shadow paging), so what
// the cache holds for every page of the published snapshot is still that
// page's committed content, and what the dead mutation wrote sits under ids
// no reader can reach.
func (t *Tree) fail(err error) error {
	if t.failed == nil {
		t.failed = err
	}
	return err
}

// Poison marks the tree failed from outside, exactly as if a mutation had
// died mid-flight: every further mutation (and checkpoint) refuses with an
// error wrapping ErrPoisoned and cause, while reads keep serving the last
// published snapshot. The serving layer's recovery swap uses it to make a
// to-be-replaced tree permanently write-inert before a fresh Open takes
// over its files. The caller must hold the writer lock (no mutation may be
// in flight); poisoning an already poisoned tree keeps the first cause.
func (t *Tree) Poison(cause error) {
	t.fail(cause)
}

// Dim returns the feature dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of stored probabilistic feature vectors in the
// published snapshot. Lock-free: safe concurrently with a writer, which
// observes its own in-progress count via t.count.
func (t *Tree) Len() int { return t.snapshot().count }

// Height returns the published tree height (1 = the root is a leaf).
func (t *Tree) Height() int { return t.snapshot().height }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// LeafFormat returns the tree's leaf storage format.
func (t *Tree) LeafFormat() LeafFormat { return t.cfg.LeafFormat }

// LeafCapacity returns the maximum number of pfv per leaf page.
func (t *Tree) LeafCapacity() int { return t.capLeaf }

// Manager exposes the underlying page manager (for statistics).
func (t *Tree) Manager() *pagefile.Manager { return t.mgr }

func (t *Tree) readNode(id pagefile.PageID, pin pagefile.Pin) (*node, error) {
	return t.readNodeCounted(id, nil, pin)
}

// writerRead is readNode under the writer's pin, in the shape walk takes.
func (t *Tree) writerRead(id pagefile.PageID) (*node, error) {
	return t.readNode(id, t.wpin)
}

// readNodeCounted loads a node, charging the logical page access to the
// manager and, when c is non-nil, to the per-query counter — always, which
// also keeps the cache's recency accurate. A page's cache entry holds the
// decoded node beside its image, so the hot path is one cache-shard lock
// with no copy, decode or allocation; a first touch is backend read, CRC
// verify and a decode — for a leaf no copy at all where the host takes views
// (its columns view the page image), and what it derives waits for a reader.
// The node is shared with every reader: immutable. The cache attaches a node
// only to the image it was decoded from, so a write racing the decode keeps
// its own entry. Scrub does not come through here: it decodes what
// VerifyPage read and caches nothing.
//
// pin is the one the caller holds (a reader's from pinSnap, the writer's
// wpin) and the caller uses the node only while it holds it: the images a
// node views are recycled once no pin that could see them is left
// (pagefile's epoch.go). The zero Pin reads a node the caller may keep.
func (t *Tree) readNodeCounted(id pagefile.PageID, c *pagefile.Counter, pin pagefile.Pin) (*node, error) {
	v, err := t.mgr.ReadDecoded(id, c, pin, t.decode)
	if err != nil {
		return nil, err
	}
	return v.(*node), nil
}

// rewriteNode persists a modified node copy-on-write: the new content goes
// to a freshly allocated page (updating n.id) and the old page is released
// deferred, becoming reusable only after the next meta commit AND after
// every reader pinned at an epoch that could reference it has unpinned
// (epoch-based reclamation). The last committed tree therefore stays
// byte-for-byte intact on disk throughout the mutation — a crash at any
// point recovers it — and concurrent snapshot readers keep traversing the
// superseded node: its cache entry stays until the page is reclaimed (a
// reclaimed page re-enters circulation only through persistNode or the
// sidecar write, both of which replace the entry before the page becomes
// reachable again). Callers must propagate the id change into the parent's
// routing entry. A quantized leaf's superseded sidecar page is released
// alongside its leaf page.
func (t *Tree) rewriteNode(n *node) error {
	old := n.id
	oldSidecar := pagefile.NilPage
	if n.leaf && n.quant != nil {
		oldSidecar = n.quant.sidecar
	}
	if err := t.persistNew(n); err != nil {
		return err
	}
	if err := t.mgr.FreeDeferred(old); err != nil {
		return err
	}
	if oldSidecar != pagefile.NilPage {
		return t.mgr.FreeDeferred(oldSidecar)
	}
	return nil
}

// persistNew moves n to a freshly allocated page and persists it there.
func (t *Tree) persistNew(n *node) error {
	id, err := t.mgr.Allocate()
	if err != nil {
		return err
	}
	n.id = id
	return t.persistNode(n)
}

// persistNode encodes and writes the node at its current id, routing leaves
// through the tree's leaf format. The page cache's form, the one readers will
// share, is decoded from the written page image like any read miss's, and is
// complete before any reader can see it. Called directly it is for a freshly
// allocated page only; nodes of the committed tree are modified through
// rewriteNode.
func (t *Tree) persistNode(n *node) error {
	var buf []byte
	var err error
	if n.leaf {
		buf, err = t.encodeLeaf(n)
	} else {
		n.kind = kindInner
		buf, err = encodeInnerNode(n, t.dim)
	}
	if err != nil {
		return err
	}
	return t.mgr.WriteDecoded(n.id, buf, t.decode)
}

// encodeLeaf readies a leaf carrying authoritative exact vectors for
// persistence under the tree's leaf format and returns the page image for
// n.id: it rebuilds the columnar payload, and for quantized formats moves it
// to a fresh exact sidecar page and derives the quantized payload — falling
// back to the exact columnar encoding when some value cannot be covered by a
// conservative quantized interval (buildQuantLeaf), so lossy storage is
// opportunistic, never forced.
func (t *Tree) encodeLeaf(n *node) ([]byte, error) {
	n.cols = pfv.ColumnsOf(n.vectors, t.dim)
	n.quant = nil
	format := t.cfg.LeafFormat
	if format.Quantized() && len(n.vectors) == 0 {
		format = LeafExact // an empty leaf (root) needs no sidecar
	}
	switch format {
	case LeafFloat32, LeafGrid8:
		q := buildQuantLeaf(format, n.cols, t.mgr.PageSize())
		if q == nil {
			break // fall back to the exact columnar encoding
		}
		sideID, err := t.mgr.Allocate()
		if err != nil {
			return nil, err
		}
		sideBuf, err := encodeColumnarLeaf(n.cols, kindSidecar, t.mgr.PageSize())
		if err != nil {
			return nil, err
		}
		if err := t.mgr.WriteDecoded(sideID, sideBuf, t.decode); err != nil {
			return nil, err
		}
		q.sidecar = sideID
		n.cols, n.quant, n.kind = nil, q, q.kind
		return encodeQuantLeaf(q, t.dim)
	}
	n.kind = kindLeafCol
	return encodeColumnarLeaf(n.cols, kindLeafCol, t.mgr.PageSize())
}

// exactColumns returns a leaf's exact payload as its readers see it: the
// leaf's own columns, or a quantized leaf's sidecar columns (charged as a
// regular page access). ForEach, the exact-vector lookup, the delete path
// and the bounding-box helpers read leaves through it, under the caller's
// pin; check reads a sidecar with its own read, which may bypass the cache.
// It is not for the writer's materialized nodes, whose vectors supersede
// both.
func (t *Tree) exactColumns(n *node, pin pagefile.Pin) (*pfv.Columns, error) {
	if n.quant == nil {
		return n.cols, nil
	}
	side, err := t.readNode(n.quant.sidecar, pin)
	if err != nil {
		return nil, err
	}
	if side.cols == nil {
		return nil, fmt.Errorf("core: page %d referenced as sidecar is not an exact leaf", n.quant.sidecar)
	}
	return side.cols, nil
}

// rowsOf materializes columns as the row-major vectors of a writer's node,
// with room for the one vector an insert appends.
func rowsOf(c *pfv.Columns) []pfv.Vector {
	return append(make([]pfv.Vector, 0, c.Len()+1), c.Vectors()...)
}

// materializeLeaf loads a quantized leaf's exact vectors into the writer's
// node ahead of an in-place mutation. No-op for exact leaves, which clone
// materializes.
func (t *Tree) materializeLeaf(n *node) error {
	if n.vectors != nil {
		return nil
	}
	cols, err := t.exactColumns(n, t.wpin)
	if err != nil {
		return err
	}
	n.vectors = rowsOf(cols)
	return nil
}

// walk visits n and then, in pre-order, every node beneath it. It is the one
// recursion over the tree's structure: check (CheckInvariants and Scrub),
// ForEach, WalkLeafBoxes and the delete path's orphan walk are its visitors.
// visit is given the node's parent and the index of the parent's entry that
// routes to it (nil and -1 for n itself) and its depth, counting levels down
// from n. read loads a child page — readNode under a reader's pin or the
// writer's, or the scrubber's throttled verifyDecode. A quantized leaf's
// sidecar is not a child: visitors reach it by its page id (check reads it
// with read, the others through exactColumns).
func walk(n, parent *node, i, depth int, read func(pagefile.PageID) (*node, error), visit func(n, parent *node, i, depth int) error) error {
	if err := visit(n, parent, i, depth); err != nil {
		return err
	}
	for j, c := range n.children {
		child, err := read(c.page)
		if err != nil {
			return err
		}
		if err := walk(child, n, j, depth+1, read, visit); err != nil {
			return err
		}
	}
	return nil
}

// walkSnap walks the published snapshot from its root under an epoch pin,
// exactly like a query: concurrent mutations neither block the walk nor leak
// into it, and none of its pages can be reclaimed under it. read is given
// the walk's pin, which visit may use too (pin).
func (t *Tree) walkSnap(read func(pagefile.PageID, pagefile.Pin) (*node, error), visit func(n *node, pin pagefile.Pin) error) error {
	snap, pin := t.pinSnap()
	defer t.mgr.UnpinEpoch(pin)
	readPinned := func(id pagefile.PageID) (*node, error) { return read(id, pin) }
	root, err := readPinned(snap.root)
	if err != nil {
		return err
	}
	return walk(root, nil, -1, 0, readPinned, func(n, _ *node, _, _ int) error { return visit(n, pin) })
}
