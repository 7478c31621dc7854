package pagefile

import (
	"strconv"
	"syscall"
)

// mapTo reports whether the file's mapping covers [0, end), mapping the file
// afresh if it does not: twice as long as end, so a growing file remaps
// O(log size) times. Because no view of a mapping leaves the backend, the
// old one is unmapped at once. Only a 64-bit host maps (a 32-bit address
// space is too small for a large file), and a refused map leaves the file
// to ReadAt for good.
func (b *FileBackend) mapTo(end int64) bool {
	if end <= int64(len(b.view)) {
		return true
	}
	if strconv.IntSize != 64 || b.unmappable {
		return false
	}
	b.unmap()
	view, err := syscall.Mmap(int(b.f.Fd()), 0, int(2*end), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		b.unmappable = true
		return false
	}
	// Misses land anywhere in the file: read no neighbours ahead. The
	// advice only tunes the kernel, so its error changes nothing.
	_ = syscall.Madvise(view, syscall.MADV_RANDOM)
	b.view = view
	return true
}

// unmap releases the mapping, if any.
func (b *FileBackend) unmap() {
	if b.view != nil {
		_ = syscall.Munmap(b.view)
		b.view = nil
	}
}
