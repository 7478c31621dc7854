//go:build !amd64

package pfv

const hasAVX2 = false

func scoreBlocks(qm, qs float64, m, s, prod, sumZ *float64, n int) {}
func logBlocks(xs *float64, n int)                                 {}
func hullFloorBlocks(x, qs float64, muLo, muHi, sgLo, sgHi, hull, hProd, floor, fProd *float64, from, to int) (at, mask int) {
	return to, 0
}
