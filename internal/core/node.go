package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
)

// Node kinds in the on-page encoding. Kind 1, the v1 row-major leaf, is no
// longer read: Open refuses an index whose meta record names it.
const (
	kindInner = 2
	// kindLeafCol is the columnar leaf: its header, then pfv's columnar page
	// body — object ids, one contiguous float64 array per dimension for
	// means and one for sigmas, then, when the page has room, the
	// precomputed per-vector −Σ ln σᵢ terms (flagNegLnSigma). The batch
	// density evaluator runs directly over the decoded arrays.
	kindLeafCol = 3
	// kindLeafF32 stores the columnar payload quantized to float32;
	// kindLeafGrid quantized to 8-bit cells of a per-leaf per-dimension
	// uniform grid (VA-file style). Both carry the page id of an exact
	// columnar sidecar holding the full-precision payload.
	kindLeafF32  = 4
	kindLeafGrid = 5
	// kindSidecar is the exact sidecar page of a quantized leaf. It uses
	// the kindLeafCol layout; the distinct kind keeps tree walkers and the
	// fuzzer from mistaking a sidecar for a directly linked leaf.
	kindSidecar = 6
)

// nodeHeaderSize is kind (1) + entry count (2), the inner node's header.
const nodeHeaderSize = 3

// colHeaderSize is kind (1) + entry count (2) + flags (1).
const colHeaderSize = 4

// quantHeaderSize is colHeaderSize + the sidecar page id (4).
const quantHeaderSize = 8

// gridParamSize is the per-dimension descriptor of kindLeafGrid: the μ and
// σ grid ranges (4 float64).
const gridParamSize = 32

// flagNegLnSigma marks a columnar page that stores the precomputed
// −Σ ln σᵢ terms; decoders recompute them (in the same canonical order, so
// bit-identically) when a full page has no room for them.
const flagNegLnSigma = 1

// gridCells is the number of quantization cells per dimension of
// kindLeafGrid: one byte per stored value.
const gridCells = 256

// maxNodeEntries is the largest entry count the u16 page header encodes.
// The encoders refuse larger nodes instead of silently truncating the count.
const maxNodeEntries = math.MaxUint16

// childEntry is one routing entry of an inner node: the child page, the
// number of probabilistic feature vectors stored in the child's subtree
// (needed for the sum bounds n·ˇN and n·ˆN of §5.2.2), and the child's
// parameter-space bounding box.
//
// logCount caches ln(count), the log-space factor of the §5.2.2 sum bounds.
// It is derived, not encoded: decodeNode fills it once — every readable node,
// read back or just written, is decoded from its page image — so the
// best-first traversal never pays a math.Log per child per visit.
//
// box is set on the writer's nodes only; a readable node holds all its child
// boxes column-major in node.boxes instead.
type childEntry struct {
	page     pagefile.PageID
	count    int
	logCount float64
	box      ParamBox
}

// node is the in-memory form of one Gauss-tree page.
//
// A node a reader can see is decoded from its page image (by a read miss, or
// by the write that made the image) and is immutable. It holds a leaf's
// payload once, as views of that image where the host allows
// (pfv.DecodeColumns): exact leaves (columnar and sidecar pages alike) carry
// cols, quantized leaves carry quant (the widened parameter intervals plus
// the raw quantized payload; their exact vectors are the cols of the sidecar
// page).
// The row-major vectors exist only on the writer's own nodes: clone and
// materializeLeaf build them ahead of an in-place mutation, and from then
// until encodeLeaf rebuilds cols and quant for the next page image, vectors
// is the authoritative payload and cols/quant describe the superseded page.
// Inner nodes follow the same rule: a readable node holds its child boxes
// once, in boxes (filled by decodeInnerNode, complete before the node is
// shared); clone materializes them into the entries of the writer's copy,
// which has no boxes.
type node struct {
	id   pagefile.PageID
	leaf bool
	// kind records the node's on-page encoding; 0 on nodes that have not
	// been persisted yet (the write path stamps it from the tree's leaf
	// format).
	kind     byte
	vectors  []pfv.Vector // leaf payload (row-major), writer's nodes only
	cols     *pfv.Columns // leaf payload (columnar), exact leaves only
	quant    *quantLeaf   // quantized leaf payload
	children []childEntry // inner payload
	boxes    pfv.Boxes    // inner payload: the child boxes, readable nodes only
}

// quantGrid is the per-dimension descriptor of a grid-quantized leaf: the
// value ranges the 8-bit cells subdivide uniformly.
type quantGrid struct {
	muMin, muMax, sgMin, sgMax float64
}

// quantLeaf is the decoded form of a quantized leaf page: the raw quantized
// payload (kept for canonical re-encoding) plus the conservative parameter
// intervals derived from it. The widening invariant the §5.2.2 certification
// relies on: the exact μᵢⱼ and σᵢⱼ stored on the sidecar page always lie
// inside [muLo,muHi] and [sgLo,sgHi] (σ intervals clamped positive). The
// encoder verifies containment value-by-value at quantization time and falls
// back to the exact encoding for the whole leaf if any value cannot be
// covered.
type quantLeaf struct {
	kind    byte
	sidecar pagefile.PageID
	ids     []uint64

	f32Mean, f32Sigma   [][]float32 // kindLeafF32 raw payload, dimension-major
	grids               []quantGrid // kindLeafGrid per-dimension grids
	cellMean, cellSigma [][]uint8   // kindLeafGrid raw payload, dimension-major

	// iv holds the derived conservative intervals, one box per vector.
	iv pfv.Boxes
}

func (q *quantLeaf) len() int { return len(q.ids) }

// f32Interval returns the conservative parameter interval of a float32-
// quantized value: one float32 ULP in each direction. It is a function of
// the stored float32 alone, so the encoder's containment check and the
// decoder's reconstruction agree exactly. σ intervals are clamped positive
// so downstream hull/floor bounds stay defined.
func f32Interval(f float32, sigma bool) (lo, hi float64) {
	lo = float64(math.Nextafter32(f, float32(math.Inf(-1))))
	hi = float64(math.Nextafter32(f, float32(math.Inf(1))))
	if sigma && lo < math.SmallestNonzeroFloat64 {
		lo = math.SmallestNonzeroFloat64
	}
	return lo, hi
}

// gridCell maps a value to its cell of the uniform [min,max] grid.
func gridCell(min, max, x float64) uint8 {
	step := (max - min) / gridCells
	if !(step > 0) {
		return 0
	}
	c := int((x - min) / step)
	if c < 0 {
		c = 0
	}
	if c > gridCells-1 {
		c = gridCells - 1
	}
	return uint8(c)
}

// gridInterval returns the conservative interval of cell c of the uniform
// [min,max] grid, widened one float64 ULP outward so values on a cell
// boundary lie inside regardless of how the cell arithmetic rounded. The
// top cell is additionally stretched to cover max itself (step rounding can
// make min+256·step fall short of max). Like f32Interval it is a function
// of the stored bytes alone.
func gridInterval(min, max float64, c uint8, sigma bool) (lo, hi float64) {
	step := (max - min) / gridCells
	base := min + float64(c)*step
	lo = math.Nextafter(base, math.Inf(-1))
	hi = math.Nextafter(base+step, math.Inf(1))
	if c == gridCells-1 {
		if top := math.Nextafter(max, math.Inf(1)); !(hi >= top) {
			hi = top
		}
	}
	if sigma && lo < math.SmallestNonzeroFloat64 {
		lo = math.SmallestNonzeroFloat64
	}
	return lo, hi
}

// gridFit returns a cell whose conservative interval contains x, probing the
// arithmetic cell and its neighbors (floating-point division can land a
// boundary value one cell off). ok=false means no cell covers x and the
// leaf must fall back to the exact encoding.
func gridFit(min, max, x float64, sigma bool) (uint8, bool) {
	c := int(gridCell(min, max, x))
	for _, cand := range [3]int{c, c - 1, c + 1} {
		if cand < 0 || cand > gridCells-1 {
			continue
		}
		lo, hi := gridInterval(min, max, uint8(cand), sigma)
		if lo <= x && x <= hi {
			return uint8(cand), true
		}
	}
	return 0, false
}

// deriveIntervals (re)builds the conservative parameter intervals from the
// raw quantized payload. Both the encoder (after quantizing) and the decoder
// (after parsing) funnel through this, so the intervals a query sees are
// exactly the intervals the encoder verified containment for.
func (q *quantLeaf) deriveIntervals(dim int) {
	n := q.len()
	q.iv = pfv.NewBoxes(dim, n)
	for i := 0; i < dim; i++ {
		muLo, muHi, sgLo, sgHi := q.iv.Dim(i)
		switch q.kind {
		case kindLeafF32:
			fm, fs := q.f32Mean[i], q.f32Sigma[i]
			for j := 0; j < n; j++ {
				muLo[j], muHi[j] = f32Interval(fm[j], false)
				sgLo[j], sgHi[j] = f32Interval(fs[j], true)
			}
		case kindLeafGrid:
			g := q.grids[i]
			cm, cs := q.cellMean[i], q.cellSigma[i]
			for j := 0; j < n; j++ {
				muLo[j], muHi[j] = gridInterval(g.muMin, g.muMax, cm[j], false)
				sgLo[j], sgHi[j] = gridInterval(g.sgMin, g.sgMax, cs[j], true)
			}
		}
	}
}

// buildQuantLeaf quantizes a leaf batch under the given format, verifying
// for every value that its widened interval contains the exact value. It
// returns nil when any value cannot be covered or the quantized page would
// not fit — the caller then keeps the exact columnar encoding for this leaf,
// so quantization is always sound, never forced.
func buildQuantLeaf(format LeafFormat, c *pfv.Columns, pageSize int) *quantLeaf {
	n, dim := c.Len(), c.Dim()
	if n == 0 {
		return nil
	}
	q := &quantLeaf{sidecar: pagefile.NilPage, ids: c.IDs}
	switch format {
	case LeafFloat32:
		q.kind = kindLeafF32
		if quantHeaderSize+n*8+2*dim*n*4 > pageSize {
			return nil
		}
		q.f32Mean = make([][]float32, dim)
		q.f32Sigma = make([][]float32, dim)
		for i := 0; i < dim; i++ {
			q.f32Mean[i] = make([]float32, n)
			q.f32Sigma[i] = make([]float32, n)
			for j := 0; j < n; j++ {
				q.f32Mean[i][j] = float32(c.Mean[i][j])
				q.f32Sigma[i][j] = float32(c.Sigma[i][j])
			}
		}
	case LeafGrid8:
		q.kind = kindLeafGrid
		if quantHeaderSize+dim*gridParamSize+n*8+2*dim*n > pageSize {
			return nil
		}
		q.grids = make([]quantGrid, dim)
		q.cellMean = make([][]uint8, dim)
		q.cellSigma = make([][]uint8, dim)
		sgMin, sgMax := c.SigmaRange()
		for i := 0; i < dim; i++ {
			g := quantGrid{
				muMin: slices.Min(c.Mean[i]), muMax: slices.Max(c.Mean[i]), // n > 0
				sgMin: sgMin[i], sgMax: sgMax[i],
			}
			q.grids[i] = g
			cm := make([]uint8, n)
			cs := make([]uint8, n)
			for j := 0; j < n; j++ {
				var ok bool
				if cm[j], ok = gridFit(g.muMin, g.muMax, c.Mean[i][j], false); !ok {
					return nil
				}
				if cs[j], ok = gridFit(g.sgMin, g.sgMax, c.Sigma[i][j], true); !ok {
					return nil
				}
			}
			q.cellMean[i], q.cellSigma[i] = cm, cs
		}
	default:
		return nil
	}
	q.deriveIntervals(dim)
	for i := 0; i < dim; i++ {
		muLo, muHi, sgLo, sgHi := q.iv.Dim(i)
		for j := 0; j < n; j++ {
			if !(muLo[j] <= c.Mean[i][j] && c.Mean[i][j] <= muHi[j]) {
				return nil
			}
			if !(sgLo[j] <= c.Sigma[i][j] && c.Sigma[i][j] <= sgHi[j]) {
				return nil
			}
		}
	}
	return q
}

// entryCount returns the number of entries regardless of node kind.
func (n *node) entryCount() int {
	switch {
	case !n.leaf:
		return len(n.children)
	case n.vectors != nil:
		return len(n.vectors)
	case n.cols != nil:
		return n.cols.Len()
	case n.quant != nil:
		return n.quant.len()
	}
	return 0
}

// subtreeCount returns the number of pfv stored in the node's subtree.
func (n *node) subtreeCount() int {
	if n.leaf {
		return n.entryCount()
	}
	total := 0
	for _, c := range n.children {
		total += c.count
	}
	return total
}

// entry returns the routing entry a parent holds for the node.
func (n *node) entry(dim int) childEntry {
	return childEntry{page: n.id, count: n.subtreeCount(), box: n.computeBox(dim)}
}

// computeBox returns the minimum bounding parameter box of the node's
// entries. Empty nodes (only the root may be empty) return an inverted box.
// Quantized leaves must be materialized first: routing boxes are always
// built from exact parameters, never from widened intervals, so every leaf
// format produces identical inner-node geometry (and identical traversal
// order).
func (n *node) computeBox(dim int) ParamBox {
	if n.leaf {
		switch {
		case n.entryCount() == 0:
			return NewParamBox(dim)
		case n.vectors != nil:
			return BoxOfVectors(n.vectors)
		case n.cols != nil:
			return BoxOfColumns(n.cols)
		}
		panic("core: computeBox on a quantized leaf without materialized vectors")
	}
	if len(n.children) == 0 {
		return NewParamBox(dim)
	}
	b := n.children[0].box.Clone()
	for _, c := range n.children[1:] {
		b.ExtendBox(c.box)
	}
	return b
}

// leafEntrySize returns the encoded size of one exact leaf entry: id + 2d
// float64.
func leafEntrySize(dim int) int { return pfv.EncodedSize(dim) }

// innerEntrySize returns the encoded size of one inner entry: child page id
// (4) + subtree count (4) + 4 float64 bounds per dimension.
func innerEntrySize(dim int) int { return 8 + 32*dim }

// encodeInnerNode writes the entries row-major: page, count, then the
// child's four bounds per dimension — its value in each run of the node's
// box columns, in run order. A writer's node, which holds the boxes in its
// entries, is transposed first.
func encodeInnerNode(n *node, dim int) ([]byte, error) {
	boxes := n.boxes
	if boxes.Data == nil {
		boxes = boxColumnsOf(n.children, dim)
	}
	if len(n.children) > maxNodeEntries {
		return nil, fmt.Errorf("core: node %d has %d entries, limit %d", n.id, len(n.children), maxNodeEntries)
	}
	buf := make([]byte, nodeHeaderSize, nodeHeaderSize+len(n.children)*innerEntrySize(dim))
	buf[0] = kindInner
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.children)))
	for j, c := range n.children {
		if c.count < 0 || int64(c.count) > math.MaxUint32 {
			return nil, fmt.Errorf("core: node %d child %d subtree count %d does not fit uint32", n.id, c.page, c.count)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.page))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.count))
		for k := 0; k < 4*dim; k++ {
			buf = appendFloat(buf, boxes.Data[k*boxes.N+j])
		}
	}
	return buf, nil
}

// encodeColumnarLeaf writes the kindLeafCol/kindSidecar layout: the 4-byte
// header, then the columnar body (pfv.AppendColumns), carrying the
// NegLnSigma terms iff the page has room (flagNegLnSigma). The decoded form
// of a page without the flag computes them on first use in the same
// canonical order (pfv.Columns.NegLnSigma), so the two paths are
// bit-identical.
func encodeColumnarLeaf(c *pfv.Columns, kind byte, pageSize int) ([]byte, error) {
	n, dim := c.Len(), c.Dim()
	if n > maxNodeEntries {
		return nil, fmt.Errorf("core: columnar leaf has %d entries, limit %d", n, maxNodeEntries)
	}
	withNegLn := colHeaderSize+pfv.ColumnsSize(dim, n, true) <= pageSize
	buf := make([]byte, colHeaderSize, colHeaderSize+pfv.ColumnsSize(dim, n, withNegLn))
	buf[0] = kind
	binary.LittleEndian.PutUint16(buf[1:], uint16(n))
	if withNegLn {
		buf[3] = flagNegLnSigma
	}
	return pfv.AppendColumns(buf, c, withNegLn), nil
}

// encodeQuantLeaf writes the kindLeafF32/kindLeafGrid layout: the quantized
// header (with the sidecar page id), the grid descriptors (grid variant),
// ids, then the dimension-major quantized mean and sigma columns.
func encodeQuantLeaf(q *quantLeaf, dim int) ([]byte, error) {
	n := q.len()
	if n > maxNodeEntries {
		return nil, fmt.Errorf("core: quantized leaf has %d entries, limit %d", n, maxNodeEntries)
	}
	size := quantHeaderSize + n*8
	switch q.kind {
	case kindLeafF32:
		size += 2 * dim * n * 4
	case kindLeafGrid:
		size += dim*gridParamSize + 2*dim*n
	default:
		return nil, fmt.Errorf("core: encodeQuantLeaf: unknown kind %d", q.kind)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, q.kind, 0, 0, 0)
	binary.LittleEndian.PutUint16(buf[1:], uint16(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.sidecar))
	if q.kind == kindLeafGrid {
		for i := 0; i < dim; i++ {
			g := q.grids[i]
			buf = appendFloat(buf, g.muMin)
			buf = appendFloat(buf, g.muMax)
			buf = appendFloat(buf, g.sgMin)
			buf = appendFloat(buf, g.sgMax)
		}
	}
	for _, id := range q.ids {
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	for _, col := range slices.Concat(q.f32Mean, q.f32Sigma) { // none on a grid leaf
		for _, f := range col {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
		}
	}
	for _, col := range slices.Concat(q.cellMean, q.cellSigma) { // none on a float32 leaf
		buf = append(buf, col...)
	}
	return buf, nil
}

// decodeNode parses a page image into a node, whose leaf payload may view
// the image: page must be immutable, as every page image is.
func decodeNode(id pagefile.PageID, page []byte, dim int) (*node, error) {
	if len(page) < nodeHeaderSize {
		return nil, fmt.Errorf("core: truncated node page %d", id)
	}
	kind := page[0]
	count := int(binary.LittleEndian.Uint16(page[1:]))
	n := &node{id: id, kind: kind, leaf: kind != kindInner}
	var err error
	switch kind {
	case kindLeafCol, kindSidecar:
		err = decodeColumnarLeaf(n, page, dim, count)
	case kindLeafF32, kindLeafGrid:
		err = decodeQuantLeaf(n, page, dim, count)
	case kindInner:
		err = decodeInnerNode(n, page, dim, count)
	default:
		err = fmt.Errorf("core: page %d has unknown node kind %d", id, kind)
	}
	if err != nil {
		return nil, err
	}
	return n, nil
}

// decodeInnerNode fills n.children and transposes the row-major child boxes
// of the page into n.boxes: the node, the entries and one backing array,
// whatever the fan-out.
func decodeInnerNode(n *node, page []byte, dim, count int) error {
	esz := innerEntrySize(dim)
	if need := nodeHeaderSize + count*esz; len(page) < need {
		return fmt.Errorf("core: page %d: inner node truncated (%d bytes, need %d)", n.id, len(page), need)
	}
	n.children = make([]childEntry, count)
	n.boxes = pfv.NewBoxes(dim, count)
	off := nodeHeaderSize
	for j := range n.children {
		c := &n.children[j]
		c.page = pagefile.PageID(binary.LittleEndian.Uint32(page[off:]))
		c.count = int(binary.LittleEndian.Uint32(page[off+4:]))
		c.logCount = math.Log(float64(c.count))
		for k, p := 0, off+8; k < 4*dim; k, p = k+1, p+8 {
			n.boxes.Data[k*count+j] = readFloat(page[p:])
		}
		off += esz
	}
	return nil
}

// decodeColumnarLeaf reads the 4-byte header and leaves the body to
// pfv.DecodeColumns: views of the page where the host allows, nothing
// derived.
func decodeColumnarLeaf(n *node, page []byte, dim, count int) error {
	if len(page) < colHeaderSize {
		return fmt.Errorf("core: page %d: truncated columnar header", n.id)
	}
	cols, err := pfv.DecodeColumns(page[colHeaderSize:], dim, count, page[3]&flagNegLnSigma != 0)
	if err != nil {
		return fmt.Errorf("core: page %d: %w", n.id, err)
	}
	n.cols = cols
	return nil
}

func decodeQuantLeaf(n *node, page []byte, dim, count int) error {
	need := quantHeaderSize + count*8
	if n.kind == kindLeafF32 {
		need += 2 * dim * count * 4
	} else {
		need += dim*gridParamSize + 2*dim*count
	}
	if len(page) < need {
		return fmt.Errorf("core: page %d: quantized leaf truncated (%d bytes, need %d)", n.id, len(page), need)
	}
	q := &quantLeaf{
		kind:    n.kind,
		sidecar: pagefile.PageID(binary.LittleEndian.Uint32(page[4:])),
		ids:     make([]uint64, count),
	}
	off := quantHeaderSize
	if q.kind == kindLeafGrid {
		q.grids = make([]quantGrid, dim)
		for i := 0; i < dim; i++ {
			q.grids[i] = quantGrid{
				muMin: readFloat(page[off:]),
				muMax: readFloat(page[off+8:]),
				sgMin: readFloat(page[off+16:]),
				sgMax: readFloat(page[off+24:]),
			}
			off += gridParamSize
		}
	}
	for j := range q.ids {
		q.ids[j] = binary.LittleEndian.Uint64(page[off:])
		off += 8
	}
	if q.kind == kindLeafF32 {
		q.f32Mean, q.f32Sigma = make([][]float32, dim), make([][]float32, dim)
		for _, cols := range [2][][]float32{q.f32Mean, q.f32Sigma} {
			for i := range cols {
				cols[i] = make([]float32, count)
				for j := range cols[i] {
					cols[i][j] = math.Float32frombits(binary.LittleEndian.Uint32(page[off:]))
					off += 4
				}
			}
		}
	} else {
		q.cellMean, q.cellSigma = make([][]uint8, dim), make([][]uint8, dim)
		for _, cols := range [2][][]uint8{q.cellMean, q.cellSigma} {
			for i := range cols {
				cols[i] = page[off : off+count : off+count]
				off += count
			}
		}
	}
	q.deriveIntervals(dim)
	n.quant = q
	return nil
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func readFloat(src []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(src))
}
