package pfv

import (
	"encoding/binary"
	"math"
	"runtime"
	"unsafe"
)

// hostViews is decided once: the hosts on which a decoded body views its
// page. Both are little-endian, so a page's words are their in-memory form
// already, and both load unaligned words at full speed — a body starts
// wherever its page's header ends (byte 4 of a Gauss-tree leaf, 2 of a scan
// page, 11 of an X-tree page). Other hosts copy (loadLE64Portable).
var hostViews = runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"

// viewLE64 returns the words at the front of src as n ids and np params, in
// place (hostViews only, n > 0): src must stay immutable while they live.
// This is the repository's only unsafe (scripts/lint.sh checks); neither
// element type holds pointers, so the GC and checkptr accept unaligned views.
func viewLE64(src []byte, n, np int) (ids []uint64, params []float64) {
	src = src[:8*(n+np)]
	p := unsafe.Pointer(unsafe.SliceData(src))
	return unsafe.Slice((*uint64)(p), n), unsafe.Slice((*float64)(unsafe.Add(p, 8*n)), np)
}

// loadLE64Portable fills ids, then params, from the little-endian 64-bit
// words at the front of src, one at a time, whatever the host: the decode of
// hosts without views and the reference the views are held to bit for bit.
func loadLE64Portable(ids []uint64, params []float64, src []byte) {
	for j := range ids {
		ids[j] = binary.LittleEndian.Uint64(src[8*j:])
	}
	for j := range params {
		params[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*(len(ids)+j):]))
	}
}
