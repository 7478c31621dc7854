package pfv

// hasAVX2: CPUID's AVX and AVX2 bits, and the OS saves YMM state (XGETBV).
var hasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx&(1<<27) == 0 || ecx&(1<<28) == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}()

// Blocks of four up to n (or to). hullFloorBlocks (nil floor: hull only) stops
// after a block with lanes for floorCorner: its first entry, a lane mask.
//
//go:noescape
func scoreBlocks(qm, qs float64, m, s, prod, sumZ *float64, n int)

//go:noescape
func hullFloorBlocks(x, qs float64, muLo, muHi, sgLo, sgHi, hull, hProd, floor, fProd *float64, from, to int) (at, mask int)

//go:noescape
func logBlocks(xs *float64, n int)
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() uint32
