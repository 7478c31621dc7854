// AVX2 bodies of the Go loops in kernels.go, four float64 lanes per
// instruction. Every lane repeats its entry's Go operations in the Go order
// (no FMA, no reassociation); IEEE add, subtract, multiply and divide round
// each lane exactly as the scalar instruction does, so the bodies give the
// Go loops' bits. Operands are in Go assembler order: the destination last,
// and VSUBPD/VDIVPD a, b, dst compute dst = b - a and b / a.

#include "textflag.h"

// Constants of $GOROOT/src/math/log_amd64.s, and the special-case results.
DATA logc<>+0x00(SB)/8, $0x000FFFFFFFFFFFFF // mantissa bits
DATA logc<>+0x08(SB)/8, $0.5
DATA logc<>+0x10(SB)/8, $7.07106781186547524401e-01 // sqrt(2)/2
DATA logc<>+0x18(SB)/8, $1.0
DATA logc<>+0x20(SB)/8, $2.0
DATA logc<>+0x28(SB)/8, $0x4330000000000000 // 2^52
DATA logc<>+0x30(SB)/8, $4503599627371518.0 // 2^52 + 1022
DATA logc<>+0x38(SB)/8, $6.666666666666735130e-01 // L1
DATA logc<>+0x40(SB)/8, $3.999999999940941908e-01 // L2
DATA logc<>+0x48(SB)/8, $2.857142874366239149e-01 // L3
DATA logc<>+0x50(SB)/8, $2.222219843214978396e-01 // L4
DATA logc<>+0x58(SB)/8, $1.818357216161805012e-01 // L5
DATA logc<>+0x60(SB)/8, $1.531383769920937332e-01 // L6
DATA logc<>+0x68(SB)/8, $1.479819860511658591e-01 // L7
DATA logc<>+0x70(SB)/8, $6.93147180369123816490e-01 // Ln2Hi
DATA logc<>+0x78(SB)/8, $1.90821492927058770002e-10 // Ln2Lo
DATA logc<>+0x80(SB)/8, $0x7FF0000000000000 // +Inf
DATA logc<>+0x88(SB)/8, $0xFFF0000000000000 // -Inf
DATA logc<>+0x90(SB)/8, $0x7FF8000000000001 // NaN
DATA logc<>+0x98(SB)/8, $0x8000000000000000 // sign bit
GLOBL logc<>(SB), RODATA|NOPTR, $0xa0

// func scoreBlocks(qm, qs float64, m, s, prod, sumZ *float64, n int)
TEXT ·scoreBlocks(SB), NOSPLIT, $0-56
	VBROADCASTSD qm+0(FP), Y14
	VBROADCASTSD qs+8(FP), Y15
	MOVQ         m+16(FP), SI
	MOVQ         s+24(FP), DI
	MOVQ         prod+32(FP), R8
	MOVQ         sumZ+40(FP), R9
	MOVQ         n+48(FP), CX
	XORQ         AX, AX

scoreLoop:
	CMPQ    AX, CX
	JGE     scoreDone
	VADDPD  (DI)(AX*8), Y15, Y0 // s = σ + σq
	VSUBPD  (SI)(AX*8), Y14, Y1 // μq − μ
	VDIVPD  Y0, Y1, Y1          // z
	VMULPD  (R8)(AX*8), Y0, Y0  // prod·s
	VMOVUPD Y0, (R8)(AX*8)
	VMULPD  Y1, Y1, Y1
	VADDPD  (R9)(AX*8), Y1, Y1  // sumZ + z²
	VMOVUPD Y1, (R9)(AX*8)
	ADDQ    $4, AX
	JMP     scoreLoop

scoreDone:
	VZEROUPPER
	RET

// HULL is one block of the hull step at entry AX, with x in Y14, σq in Y15
// and zero in Y12: csLo, csHi (Y0, Y1); below = μ̌ − x, above = x − μ̂
// (Y2, Y3); d = max(below, above, 0) and s = min(max(d, csLo), csHi) as
// signed compares of the bit patterns; z = d/s; hProd·s and hull + z²
// stored. It leaves csLo, csHi, below and above in Y0–Y3.
#define HULL \
	VADDPD    (R10)(AX*8), Y15, Y0 \
	VADDPD    (R11)(AX*8), Y15, Y1 \
	VMOVUPD   (SI)(AX*8), Y2       \
	VSUBPD    Y14, Y2, Y2          \
	VSUBPD    (DI)(AX*8), Y14, Y3  \
	VPCMPGTQ  Y3, Y2, Y4           \
	VBLENDVPD Y4, Y2, Y3, Y5       \
	VPCMPGTQ  Y12, Y5, Y4          \
	VPAND     Y4, Y5, Y5           \
	VPCMPGTQ  Y0, Y5, Y4           \
	VBLENDVPD Y4, Y5, Y0, Y6       \
	VPCMPGTQ  Y1, Y6, Y4           \
	VBLENDVPD Y4, Y1, Y6, Y6       \
	VDIVPD    Y6, Y5, Y5           \
	VMULPD    (R12)(AX*8), Y6, Y6  \
	VMOVUPD   Y6, (R12)(AX*8)      \
	VMULPD    Y5, Y5, Y5           \
	VADDPD    (R13)(AX*8), Y5, Y5  \
	VMOVUPD   Y5, (R13)(AX*8)

// func hullFloorBlocks(x, qs float64, muLo, muHi, sgLo, sgHi, hull, hProd, floor, fProd *float64, from, to int) (at, mask int)
//
// A nil floor runs the hull alone.
TEXT ·hullFloorBlocks(SB), NOSPLIT, $0-112
	VBROADCASTSD x+0(FP), Y14
	VBROADCASTSD qs+8(FP), Y15
	MOVQ         muLo+16(FP), SI
	MOVQ         muHi+24(FP), DI
	MOVQ         sgLo+32(FP), R10
	MOVQ         sgHi+40(FP), R11
	MOVQ         hull+48(FP), R13
	MOVQ         hProd+56(FP), R12
	MOVQ         floor+64(FP), R8
	MOVQ         fProd+72(FP), R9
	MOVQ         from+80(FP), AX
	MOVQ         to+88(FP), CX
	VPXOR        Y12, Y12, Y12
	VBROADCASTSD logc<>+0x98(SB), Y13
	XORQ         DX, DX // no lanes handed back
	TESTQ        R8, R8
	JNZ          floorLoop

hullLoop:
	CMPQ AX, CX
	JGE  hullFloorDone
	HULL
	ADDQ $4, AX
	JMP  hullLoop

floorLoop:
	CMPQ AX, CX
	JGE  hullFloorDone
	HULL

	// The floor: d = max(−below, −above) on the sign-flipped differences.
	VXORPD    Y13, Y2, Y2
	VXORPD    Y13, Y3, Y3
	VPCMPGTQ  Y3, Y2, Y4
	VBLENDVPD Y4, Y2, Y3, Y2
	VCMPPD    $0x11, Y1, Y2, Y3 // d < csHi
	VCMPPD    $0x1e, Y0, Y2, Y4 // d > csLo
	VBLENDVPD Y3, Y1, Y0, Y6    // s = csHi if d < csHi, else csLo
	VANDPD    Y3, Y4, Y4        // lanes for floorCorner: left as they are
	VDIVPD    Y6, Y2, Y2        // z = d / s
	VMOVUPD   (R9)(AX*8), Y7
	VMULPD    Y6, Y7, Y6
	VBLENDVPD Y4, Y7, Y6, Y6
	VMOVUPD   Y6, (R9)(AX*8)   // fProd·s
	VMOVUPD   (R8)(AX*8), Y7
	VMULPD    Y2, Y2, Y2
	VADDPD    Y2, Y7, Y2
	VBLENDVPD Y4, Y7, Y2, Y2
	VMOVUPD   Y2, (R8)(AX*8)   // floor + z²
	VMOVMSKPD Y4, DX
	TESTQ     DX, DX
	JNZ       hullFloorDone
	ADDQ      $4, AX
	JMP       floorLoop

hullFloorDone:
	MOVQ AX, at+96(FP)
	MOVQ DX, mask+104(FP)
	VZEROUPPER
	RET

// func logBlocks(xs *float64, n int)
//
// math.Log in place, transcribed lane by lane from log_amd64.s: frexp by
// masks, k through 2^52, the same polynomial in the same order; zero,
// negative, infinite and NaN lanes take math.Log's special results.
TEXT ·logBlocks(SB), NOSPLIT, $0-16
	MOVQ         xs+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD logc<>+0x18(SB), Y8  // 1
	VBROADCASTSD logc<>+0x00(SB), Y9  // mantissa bits
	VBROADCASTSD logc<>+0x08(SB), Y10 // 0.5
	VBROADCASTSD logc<>+0x10(SB), Y11 // sqrt(2)/2
	VBROADCASTSD logc<>+0x28(SB), Y12 // 2^52
	VPXOR        Y13, Y13, Y13        // 0
	VBROADCASTSD logc<>+0x80(SB), Y14 // +Inf
	XORQ         AX, AX

logLoop:
	CMPQ    AX, CX
	JGE     logDone
	VMOVUPD (SI)(AX*8), Y0

	// f1 = frexp fraction in [0.5, 1), k = exponent as a float64.
	VANDPD       Y9, Y0, Y2
	VORPD        Y10, Y2, Y2
	VPSRLQ       $52, Y0, Y1
	VPOR         Y12, Y1, Y1
	VBROADCASTSD logc<>+0x30(SB), Y15
	VSUBPD       Y15, Y1, Y1

	// if !(sqrt(2)/2 < f1) { k -= 1; f1 *= 2 } (else f1 *= 1)
	VCMPPD $5, Y2, Y11, Y3
	VANDPD Y8, Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD Y8, Y3, Y3
	VMULPD Y3, Y2, Y2
	VSUBPD Y8, Y2, Y2 // f = f1 - 1

	// s = f / (2 + f); s2 = s*s; s4 = s2*s2
	VBROADCASTSD logc<>+0x20(SB), Y15
	VADDPD       Y2, Y15, Y4
	VDIVPD       Y4, Y2, Y3
	VMULPD       Y3, Y3, Y4
	VMULPD       Y4, Y4, Y5

	// t1 = s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VBROADCASTSD logc<>+0x68(SB), Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logc<>+0x58(SB), Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logc<>+0x48(SB), Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logc<>+0x38(SB), Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       Y6, Y4, Y4

	// t2 = s4 * (L2 + s4*(L4+s4*L6)); R = t1 + t2
	VBROADCASTSD logc<>+0x60(SB), Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logc<>+0x50(SB), Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logc<>+0x40(SB), Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       Y6, Y5, Y5
	VADDPD       Y5, Y4, Y4

	// hfsq = 0.5 * f * f
	VMULPD Y2, Y10, Y7
	VMULPD Y2, Y7, Y7

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD       Y7, Y4, Y4
	VMULPD       Y4, Y3, Y3
	VBROADCASTSD logc<>+0x78(SB), Y15
	VMULPD       Y1, Y15, Y4
	VADDPD       Y4, Y3, Y3
	VSUBPD       Y3, Y7, Y7
	VSUBPD       Y2, Y7, Y7
	VBROADCASTSD logc<>+0x70(SB), Y15
	VMULPD       Y15, Y1, Y1
	VSUBPD       Y7, Y1, Y1

	// +Inf and NaN return x, negatives NaN, ±0 −Inf.
	VPCMPGTQ     Y0, Y14, Y3
	VBLENDVPD    Y3, Y1, Y0, Y1
	VPCMPGTQ     Y0, Y13, Y3
	VBROADCASTSD logc<>+0x90(SB), Y15
	VBLENDVPD    Y3, Y15, Y1, Y1
	VPSLLQ       $1, Y0, Y3
	VPCMPEQQ     Y13, Y3, Y3
	VBROADCASTSD logc<>+0x88(SB), Y15
	VBLENDVPD    Y3, Y15, Y1, Y1
	VMOVUPD      Y1, (SI)(AX*8)
	ADDQ         $4, AX
	JMP          logLoop

logDone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
