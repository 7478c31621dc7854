package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/pagefile"
)

// The tree's meta record, committed through pagefile.Manager.CommitMeta
// after every structural mutation. It captures everything Open needs to
// reattach the exact tree: the root page, the geometry bookkeeping, and the
// full configuration (combiner, split objective, leaf format) — query
// correctness depends on querying with the same σ-combiner the tree was built
// with, so the configuration travels with the file rather than with the
// caller.

// treeMetaVersion versions the core layer's meta payload. Version 3
// appends the applied write-ahead-log LSN (recovery replays only records
// above it); version 2 appended the leaf storage format. v2 records still
// open and read as appliedLSN 0 (they predate the WAL). A record naming the
// v1 row-major leaves — every v1 record, and a v2/v3 record whose leaf
// format byte is 3 — is refused: those pages are no longer read.
const treeMetaVersion = 3

// treeMetaLenV1 is the version-1 encoded size: version (1) + root (4) +
// dim (4) + height (4) + count (8) + split (1) + insert (1) +
// probe fanout (2) + combiner (1). The insert objective and the probe fanout
// were once configurable; the record keeps their bytes and writes the one
// value each ever had (metaInsertAccessCost, probeFanout).
const treeMetaLenV1 = 26

// metaInsertAccessCost is the only insert objective a record may name: an
// index whose inserts minimized anything else cannot be continued by this
// code.
const metaInsertAccessCost = 0

// treeMetaLenV2 is the version-2 encoded size: v1 + leaf format (1).
const treeMetaLenV2 = 27

// treeMetaLen is the version-3 encoded size: v2 + applied LSN (8).
const treeMetaLen = 35

// ErrNoIndex is returned by Open when the page store holds no committed
// index.
var ErrNoIndex = errors.New("core: page store holds no committed index")

func (t *Tree) encodeMeta() []byte {
	buf := make([]byte, 0, treeMetaLen)
	buf = append(buf, treeMetaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.root))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.height))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.count))
	buf = append(buf, byte(t.cfg.Split), metaInsertAccessCost)
	buf = binary.LittleEndian.AppendUint16(buf, probeFanout)
	buf = append(buf, byte(t.cfg.Combiner))
	buf = append(buf, byte(t.cfg.LeafFormat))
	buf = binary.LittleEndian.AppendUint64(buf, t.appliedLSN)
	return buf
}

func decodeTreeMeta(buf []byte) (meta Meta, cfg Config, err error) {
	if len(buf) < treeMetaLenV1 {
		return Meta{}, Config{}, fmt.Errorf("core: tree meta truncated (%d bytes, want %d)", len(buf), treeMetaLenV1)
	}
	version := buf[0]
	switch {
	case version == 2:
		if len(buf) < treeMetaLenV2 {
			return Meta{}, Config{}, fmt.Errorf("core: tree meta truncated (%d bytes, want %d)", len(buf), treeMetaLenV2)
		}
	case version == treeMetaVersion:
		if len(buf) < treeMetaLen {
			return Meta{}, Config{}, fmt.Errorf("core: tree meta truncated (%d bytes, want %d)", len(buf), treeMetaLen)
		}
	case version != 1:
		return Meta{}, Config{}, fmt.Errorf("core: unsupported tree meta version %d", version)
	}
	// v1 predates the leaf-format byte; a v2/v3 index that wrote v1
	// row-major leaves recorded 3 there. Neither is read before refusing.
	if version == 1 || buf[26] == 3 {
		return Meta{}, Config{}, fmt.Errorf("%w: core: tree meta v%d names v1 row-major leaves, which this build no longer reads; rebuild the index", pagefile.ErrBadFormat, version)
	}
	meta = Meta{
		Root:   pagefile.PageID(binary.LittleEndian.Uint32(buf[1:])),
		Dim:    int(binary.LittleEndian.Uint32(buf[5:])),
		Height: int(binary.LittleEndian.Uint32(buf[9:])),
		Count:  int(binary.LittleEndian.Uint64(buf[13:])),
	}
	cfg = Config{
		Split:      SplitObjective(buf[21]),
		Combiner:   gaussian.Combiner(buf[25]),
		LeafFormat: LeafFormat(buf[26]),
	}
	if version >= 3 {
		meta.AppliedLSN = binary.LittleEndian.Uint64(buf[27:])
	}
	switch {
	case meta.Dim <= 0:
		err = fmt.Errorf("core: tree meta has dimension %d", meta.Dim)
	case meta.Height <= 0:
		err = fmt.Errorf("core: tree meta has height %d", meta.Height)
	case meta.Count < 0:
		err = fmt.Errorf("core: tree meta has count %d", meta.Count)
	case cfg.Split > SplitVolume:
		err = fmt.Errorf("core: tree meta has unknown split objective %d", cfg.Split)
	case buf[22] != metaInsertAccessCost:
		err = fmt.Errorf("core: tree meta has unsupported insert objective %d", buf[22])
	case cfg.Combiner > gaussian.CombineConvolution:
		err = fmt.Errorf("core: tree meta has unknown combiner %d", cfg.Combiner)
	case binary.LittleEndian.Uint16(buf[23:]) == 0:
		err = fmt.Errorf("core: tree meta has probe fanout 0")
	case cfg.LeafFormat > LeafGrid8:
		err = fmt.Errorf("core: tree meta has unknown leaf format %d", cfg.LeafFormat)
	}
	if err != nil {
		return Meta{}, Config{}, err
	}
	return meta, cfg, nil
}

// commitMeta durably commits the tree's current state. It is called after
// every structural mutation (insert, batch insert, delete, bulk load), so a
// reopened file always lands on the tree as of the last completed public
// mutation, never an intermediate state.
func (t *Tree) commitMeta() error {
	return t.mgr.CommitMeta(t.encodeMeta())
}
