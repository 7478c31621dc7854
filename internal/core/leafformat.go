package core

import "fmt"

// LeafFormat selects the on-page encoding of leaf nodes.
//
// All formats index the same data and answer the same queries. The exact
// formats are bit-for-bit interchangeable: every density, bound and
// certified probability interval is identical. The quantized formats store
// lossy leaf pages plus one exact "sidecar" page per leaf; the traversal
// prunes on conservatively widened parameter intervals decoded from the
// lossy page and reads the sidecar only when a leaf can still matter, so
// ranked results stay exact (no false dismissals) while certified intervals
// may come out wider (they always contain the exact tree's interval).
type LeafFormat uint8

const (
	// LeafExact is the default: columnar float64 leaves. Means and sigmas
	// are stored as contiguous per-dimension arrays plus a precomputed
	// per-vector −Σ ln σᵢ term, so the executor scores whole leaves with
	// vectorizable batch loops.
	LeafExact LeafFormat = iota
	// LeafFloat32 stores leaf means and sigmas as float32 (half the leaf
	// bytes), with one exact columnar sidecar page per leaf. Decoded values
	// are widened by one float32 ULP in each direction, so the true
	// parameters always lie inside the decoded intervals.
	LeafFloat32
	// LeafGrid8 stores leaf means and sigmas as 8-bit cells of a per-leaf,
	// per-dimension uniform grid (VA-file style; about a quarter of the
	// leaf bytes), with one exact columnar sidecar page per leaf. Decoded
	// cell intervals are widened outward, so the true parameters always lie
	// inside them.
	LeafGrid8
)

// String returns the format's name.
func (f LeafFormat) String() string {
	switch f {
	case LeafExact:
		return "exact"
	case LeafFloat32:
		return "float32"
	case LeafGrid8:
		return "grid8"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(f))
	}
}

// ParseLeafFormat parses a format name as printed by String.
func ParseLeafFormat(s string) (LeafFormat, error) {
	switch s {
	case "exact", "":
		return LeafExact, nil
	case "float32":
		return LeafFloat32, nil
	case "grid8":
		return LeafGrid8, nil
	default:
		return 0, fmt.Errorf("core: unknown leaf format %q (want exact, float32 or grid8)", s)
	}
}

// Quantized reports whether the format stores lossy leaf pages backed by
// exact sidecars.
func (f LeafFormat) Quantized() bool {
	return f == LeafFloat32 || f == LeafGrid8
}
