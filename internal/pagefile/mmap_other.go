//go:build !linux

package pagefile

// mapTo reports that the file is not mapped: other operating systems read
// each slot with ReadAt.
func (b *FileBackend) mapTo(int64) bool { return false }

// unmap has no mapping to release.
func (b *FileBackend) unmap() {}
