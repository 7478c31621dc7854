package pfv

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian is decided once: on such a host a columnar page's
// little-endian 64-bit words are the in-memory form already.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// loadLE64 fills ids, then params, from the little-endian 64-bit words at
// the front of src: two block copies on a little-endian host, elsewhere
// loadLE64Portable, which the tests hold it equal to bit for bit. This is
// the repository's only unsafe (scripts/lint.sh checks): each cast views a
// Go-allocated destination as its own bytes — never src, so no page buffer's
// alignment matters — and the view dies with the call.
func loadLE64(ids []uint64, params []float64, src []byte) {
	if !hostLittleEndian {
		loadLE64Portable(ids, params, src)
		return
	}
	n := copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ids))), 8*len(ids)), src[:8*len(ids)])
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(params))), 8*len(params)), src[n:n+8*len(params)])
}

// loadLE64Portable is loadLE64 one word at a time, whatever the host order.
func loadLE64Portable(ids []uint64, params []float64, src []byte) {
	for j := range ids {
		ids[j] = binary.LittleEndian.Uint64(src[8*j:])
	}
	for j := range params {
		params[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*(len(ids)+j):]))
	}
}
