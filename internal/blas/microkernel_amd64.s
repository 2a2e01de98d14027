//go:build amd64 && !purego && !race

#include "textflag.h"

// func microAVX2(kb int64, a *float64, ars, aks int64, pb, c *float64, ldc int64, neg bool)
//
// 6×8 DGEMM micro-kernel: c[i*ldc+j] ±= Σ_p a[p*aks+i*ars]·pb[p*8+j], kb ≥ 1.
// Y0..Y11 hold the accumulator tile (two YMM per row of four doubles each);
// every k step loads one 8-wide B vector pair into Y12/Y13, broadcasts the six
// A values two at a time into Y14/Y15 and issues twelve FMAs (96 flops). A is
// addressed at whatever strides the caller passes — its own rows in place, or
// the packed tail strip — rows 0–2 off SI and rows 3–5 off R8 = SI + 3·ars,
// each at (R)(ars*1|*2). After the last step the sums are XORed with Y12 —
// the sign bit in every lane when neg, zero otherwise, so one body serves
// C += and C −= — and each row of C is loaded, added to and stored.
TEXT ·microAVX2(SB), NOSPLIT, $0-57
	MOVQ kb+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), AX
	MOVQ aks+24(FP), R9
	MOVQ pb+32(FP), DI
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), BX

	SHLQ $3, AX            // A row stride in bytes
	SHLQ $3, R9            // A k-step stride in bytes
	SHLQ $3, BX            // row stride of C in bytes
	LEAQ (AX)(AX*2), R8
	ADDQ SI, R8            // row 3

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

loop:
	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13

	VBROADCASTSD (SI), Y14
	VBROADCASTSD (SI)(AX*1), Y15
	VFMADD231PD  Y12, Y14, Y0
	VFMADD231PD  Y13, Y14, Y1
	VFMADD231PD  Y12, Y15, Y2
	VFMADD231PD  Y13, Y15, Y3

	VBROADCASTSD (SI)(AX*2), Y14
	VBROADCASTSD (R8), Y15
	VFMADD231PD  Y12, Y14, Y4
	VFMADD231PD  Y13, Y14, Y5
	VFMADD231PD  Y12, Y15, Y6
	VFMADD231PD  Y13, Y15, Y7

	VBROADCASTSD (R8)(AX*1), Y14
	VBROADCASTSD (R8)(AX*2), Y15
	VFMADD231PD  Y12, Y14, Y8
	VFMADD231PD  Y13, Y14, Y9
	VFMADD231PD  Y12, Y15, Y10
	VFMADD231PD  Y13, Y15, Y11

	ADDQ R9, SI
	ADDQ R9, R8
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

	MOVBQZX      neg+56(FP), AX
	SHLQ         $63, AX
	VMOVQ        AX, X12
	VBROADCASTSD X12, Y12

	VXORPD  Y12, Y0, Y0
	VXORPD  Y12, Y1, Y1
	VADDPD  (DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    BX, DX
	VXORPD  Y12, Y2, Y2
	VXORPD  Y12, Y3, Y3
	VADDPD  (DX), Y2, Y2
	VADDPD  32(DX), Y3, Y3
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    BX, DX
	VXORPD  Y12, Y4, Y4
	VXORPD  Y12, Y5, Y5
	VADDPD  (DX), Y4, Y4
	VADDPD  32(DX), Y5, Y5
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    BX, DX
	VXORPD  Y12, Y6, Y6
	VXORPD  Y12, Y7, Y7
	VADDPD  (DX), Y6, Y6
	VADDPD  32(DX), Y7, Y7
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	ADDQ    BX, DX
	VXORPD  Y12, Y8, Y8
	VXORPD  Y12, Y9, Y9
	VADDPD  (DX), Y8, Y8
	VADDPD  32(DX), Y9, Y9
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	ADDQ    BX, DX
	VXORPD  Y12, Y10, Y10
	VXORPD  Y12, Y11, Y11
	VADDPD  (DX), Y10, Y10
	VADDPD  32(DX), Y11, Y11
	VMOVUPD Y10, (DX)
	VMOVUPD Y11, 32(DX)
	VZEROUPPER
	RET

// func microAVX512(kb int64, a *float64, ars, aks int64, pb, c *float64, ldc int64, neg bool)
//
// The 8×16 micro-kernel of AVX-512 hosts: c[i*ldc+j] ±= Σ_p
// a[p*aks+i*ars]·b(p, j) for i < 8 and j < 16, kb ≥ 1, columns 0–7 of B from
// the packed strip at pb (pb[p*8+j]) and columns 8–15 from the next strip,
// kb·8 doubles on (R10). Z0..Z15 hold the accumulator tile, one ZMM per row
// and strip; every k step loads one 8-wide vector from each strip into
// Z16/Z17, broadcasts the eight A values into Z18..Z25 and issues sixteen
// FMAs (256 flops). A is addressed at the strides the caller passes — its own
// rows in place, or the packed tail strip — off two pointers, SI (row 0) and
// R8 = SI + 3·ars (row 3), with AX = ars and R11 = 3·ars as index registers.
// Every lane runs the FMA chain microAVX2 runs for its element — from zero,
// p = 0…kb−1 — followed by the same sign XOR and the same one add onto C, so
// a product's bits do not depend on which of the two tiles applied it. Only
// AVX512F instructions: VPXORQ, not VXORPD, on Z registers.
TEXT ·microAVX512(SB), NOSPLIT, $0-57
	MOVQ kb+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), AX
	MOVQ aks+24(FP), R9
	MOVQ pb+32(FP), DI
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), BX

	SHLQ $3, AX            // A row stride in bytes
	SHLQ $3, R9            // A k-step stride in bytes
	SHLQ $3, BX            // row stride of C in bytes
	LEAQ (AX)(AX*2), R11   // three rows
	LEAQ (SI)(R11*1), R8   // row 3
	MOVQ CX, R10
	SHLQ $6, R10           // one strip is kb·8 doubles
	ADDQ DI, R10           // the second strip

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

zmmloop:
	VMOVUPD (DI), Z16
	VMOVUPD (R10), Z17

	VBROADCASTSD (SI), Z18
	VBROADCASTSD (SI)(AX*1), Z19
	VFMADD231PD  Z16, Z18, Z0
	VFMADD231PD  Z17, Z18, Z1
	VFMADD231PD  Z16, Z19, Z2
	VFMADD231PD  Z17, Z19, Z3

	VBROADCASTSD (SI)(AX*2), Z20
	VBROADCASTSD (R8), Z21
	VFMADD231PD  Z16, Z20, Z4
	VFMADD231PD  Z17, Z20, Z5
	VFMADD231PD  Z16, Z21, Z6
	VFMADD231PD  Z17, Z21, Z7

	VBROADCASTSD (SI)(AX*4), Z22
	VBROADCASTSD (R8)(AX*2), Z23
	VFMADD231PD  Z16, Z22, Z8
	VFMADD231PD  Z17, Z22, Z9
	VFMADD231PD  Z16, Z23, Z10
	VFMADD231PD  Z17, Z23, Z11

	VBROADCASTSD (R8)(R11*1), Z24
	VBROADCASTSD (R8)(AX*4), Z25
	VFMADD231PD  Z16, Z24, Z12
	VFMADD231PD  Z17, Z24, Z13
	VFMADD231PD  Z16, Z25, Z14
	VFMADD231PD  Z17, Z25, Z15

	ADDQ R9, SI
	ADDQ R9, R8
	ADDQ $64, DI
	ADDQ $64, R10
	DECQ CX
	JNZ  zmmloop

	MOVBQZX      neg+56(FP), AX
	SHLQ         $63, AX
	VPBROADCASTQ AX, Z16

	VPXORQ  Z16, Z0, Z0
	VPXORQ  Z16, Z1, Z1
	VADDPD  (DX), Z0, Z0
	VADDPD  64(DX), Z1, Z1
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	ADDQ    BX, DX
	VPXORQ  Z16, Z2, Z2
	VPXORQ  Z16, Z3, Z3
	VADDPD  (DX), Z2, Z2
	VADDPD  64(DX), Z3, Z3
	VMOVUPD Z2, (DX)
	VMOVUPD Z3, 64(DX)
	ADDQ    BX, DX
	VPXORQ  Z16, Z4, Z4
	VPXORQ  Z16, Z5, Z5
	VADDPD  (DX), Z4, Z4
	VADDPD  64(DX), Z5, Z5
	VMOVUPD Z4, (DX)
	VMOVUPD Z5, 64(DX)
	ADDQ    BX, DX
	VPXORQ  Z16, Z6, Z6
	VPXORQ  Z16, Z7, Z7
	VADDPD  (DX), Z6, Z6
	VADDPD  64(DX), Z7, Z7
	VMOVUPD Z6, (DX)
	VMOVUPD Z7, 64(DX)
	ADDQ    BX, DX
	VPXORQ  Z16, Z8, Z8
	VPXORQ  Z16, Z9, Z9
	VADDPD  (DX), Z8, Z8
	VADDPD  64(DX), Z9, Z9
	VMOVUPD Z8, (DX)
	VMOVUPD Z9, 64(DX)
	ADDQ    BX, DX
	VPXORQ  Z16, Z10, Z10
	VPXORQ  Z16, Z11, Z11
	VADDPD  (DX), Z10, Z10
	VADDPD  64(DX), Z11, Z11
	VMOVUPD Z10, (DX)
	VMOVUPD Z11, 64(DX)
	ADDQ    BX, DX
	VPXORQ  Z16, Z12, Z12
	VPXORQ  Z16, Z13, Z13
	VADDPD  (DX), Z12, Z12
	VADDPD  64(DX), Z13, Z13
	VMOVUPD Z12, (DX)
	VMOVUPD Z13, 64(DX)
	ADDQ    BX, DX
	VPXORQ  Z16, Z14, Z14
	VPXORQ  Z16, Z15, Z15
	VADDPD  (DX), Z14, Z14
	VADDPD  64(DX), Z15, Z15
	VMOVUPD Z14, (DX)
	VMOVUPD Z15, 64(DX)
	VZEROUPPER
	RET

// func transpose4AVX2(k4 int64, src *float64, ld int64, dst *float64, w int64)
//
// The row pack's four-row pass: dst[p*w+r] = src[r*ld+p] for r < 4, p < k4.
// Four k steps per iteration: one vector load per source row, a 4×4 transpose
// in registers (unpack pairs rows 0/1 and 2/3 within each 128-bit lane, the
// lane permute gathers the halves), one vector store per k step.
TEXT ·transpose4AVX2(SB), NOSPLIT, $0-40
	MOVQ k4+0(FP), CX
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), AX
	MOVQ dst+24(FP), DI
	MOVQ w+32(FP), BX
	SHLQ $3, AX           // source row stride in bytes
	SHLQ $3, BX           // destination k-step stride in bytes
	LEAQ (SI)(AX*2), R8   // row 2
	LEAQ (BX)(BX*2), R9   // three k steps
	SHRQ $2, CX

tloop:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(AX*1), Y1
	VMOVUPD (R8), Y2
	VMOVUPD (R8)(AX*1), Y3

	VUNPCKLPD Y1, Y0, Y4   // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD Y1, Y0, Y5   // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD Y3, Y2, Y6   // r2[0] r3[0] r2[2] r3[2]
	VUNPCKHPD Y3, Y2, Y7   // r2[1] r3[1] r2[3] r3[3]

	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(BX*1)
	VMOVUPD Y2, (DI)(BX*2)
	VMOVUPD Y3, (DI)(R9*1)

	ADDQ $32, SI
	ADDQ $32, R8
	LEAQ (DI)(BX*4), DI
	DECQ CX
	JNZ  tloop
	VZEROUPPER
	RET

// func solve8AVX2(n int64, x, tri *float64)
//
// The triangular base solve on eight transposed rows: column j of x (Y0, Y1)
// is divided by T[j][j] and stored, then T[j][l] times it is taken out of
// every later column l. Multiply and subtract are separate instructions: the
// portable body rounds twice per term and this must give its bits.
TEXT ·solve8AVX2(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ tri+16(FP), DI   // walks the diagonal: &tri[j*16+j]

jloop:
	VBROADCASTSD (DI), Y2
	VMOVUPD      (SI), Y0
	VMOVUPD      32(SI), Y1
	VDIVPD       Y2, Y0, Y0
	VDIVPD       Y2, Y1, Y1
	VMOVUPD      Y0, (SI)
	VMOVUPD      Y1, 32(SI)
	MOVQ         CX, BX
	DECQ         BX       // later columns
	JZ           done
	LEAQ         8(DI), R8
	LEAQ         64(SI), R9

lloop:
	VBROADCASTSD (R8), Y2
	VMULPD       Y2, Y0, Y3
	VMULPD       Y2, Y1, Y4
	VMOVUPD      (R9), Y5
	VMOVUPD      32(R9), Y6
	VSUBPD       Y3, Y5, Y5
	VSUBPD       Y4, Y6, Y6
	VMOVUPD      Y5, (R9)
	VMOVUPD      Y6, 32(R9)
	ADDQ         $8, R8
	ADDQ         $64, R9
	DECQ         BX
	JNZ          lloop

	ADDQ $64, SI
	ADDQ $136, DI
	DECQ CX
	JMP  jloop

done:
	VZEROUPPER
	RET

// func dealAVX2(kb, strips int64, src *float64, ld int64, dst *float64)
//
// The column pack's full strips: dst[s*kb*8+p*8+q] = src[p*ld+s*8+q] for
// p < kb, s < strips, q < 8, kb ≥ 1 and strips ≥ 1. Four rows of B per pass:
// each strip takes eight YMM loads, two from each row, and eight stores to
// 256 contiguous bytes of its own, then the pass moves one strip (kb·64
// bytes) on. The last kb mod 4 rows go one per pass, 64 bytes to each strip.
TEXT ·dealAVX2(SB), NOSPLIT, $0-40
	MOVQ kb+0(FP), CX
	MOVQ strips+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ ld+24(FP), AX
	MOVQ dst+32(FP), DI
	SHLQ $3, AX            // source row stride in bytes
	MOVQ CX, R10
	SHLQ $6, R10           // one strip is kb·8 doubles

dealfour:
	CMPQ CX, $4
	JLT  dealone
	MOVQ SI, R11
	LEAQ (SI)(AX*2), R8    // row 2
	MOVQ DI, R13
	MOVQ BX, DX

dealfourstrip:
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD (R11)(AX*1), Y2
	VMOVUPD 32(R11)(AX*1), Y3
	VMOVUPD (R8), Y4
	VMOVUPD 32(R8), Y5
	VMOVUPD (R8)(AX*1), Y6
	VMOVUPD 32(R8)(AX*1), Y7
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 64(R13)
	VMOVUPD Y3, 96(R13)
	VMOVUPD Y4, 128(R13)
	VMOVUPD Y5, 160(R13)
	VMOVUPD Y6, 192(R13)
	VMOVUPD Y7, 224(R13)
	ADDQ    $64, R11
	ADDQ    $64, R8
	ADDQ    R10, R13
	DECQ    DX
	JNZ     dealfourstrip

	LEAQ (SI)(AX*4), SI
	ADDQ $256, DI
	SUBQ $4, CX
	JMP  dealfour

dealone:
	TESTQ CX, CX
	JZ    dealdone
	MOVQ  SI, R11
	MOVQ  DI, R13
	MOVQ  BX, DX

dealonestrip:
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	ADDQ    $64, R11
	ADDQ    R10, R13
	DECQ    DX
	JNZ     dealonestrip

	ADDQ AX, SI
	ADDQ $64, DI
	DECQ CX
	JMP  dealone

dealdone:
	VZEROUPPER
	RET

// func elimAVX2(m, nk int64, dst, src *float64, ld int64, coef *float64)
//
// The left solve's row update: dst[j] −= coef[k]·src[k*ld+j] for k < nk in
// order, j < m, nk ≥ 1. Thirty-two columns of dst stay in Y0..Y7 across
// every k, then four in Y0, then one in X0; each term is one multiply into a
// scratch register and one subtract. Never FMA: the portable body rounds the
// product before subtracting it, and this must give its bits.
TEXT ·elimAVX2(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), CX
	MOVQ nk+8(FP), BX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ ld+32(FP), AX
	MOVQ coef+40(FP), DX
	SHLQ $3, AX            // source row stride in bytes

elim32:
	CMPQ    CX, $32
	JLT     elim4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ    SI, R8
	MOVQ    DX, R9
	MOVQ    BX, R10

elim32k:
	VBROADCASTSD (R9), Y8
	VMULPD       (R8), Y8, Y9
	VMULPD       32(R8), Y8, Y10
	VMULPD       64(R8), Y8, Y11
	VMULPD       96(R8), Y8, Y12
	VSUBPD       Y9, Y0, Y0
	VSUBPD       Y10, Y1, Y1
	VSUBPD       Y11, Y2, Y2
	VSUBPD       Y12, Y3, Y3
	VMULPD       128(R8), Y8, Y9
	VMULPD       160(R8), Y8, Y10
	VMULPD       192(R8), Y8, Y11
	VMULPD       224(R8), Y8, Y12
	VSUBPD       Y9, Y4, Y4
	VSUBPD       Y10, Y5, Y5
	VSUBPD       Y11, Y6, Y6
	VSUBPD       Y12, Y7, Y7
	ADDQ         AX, R8
	ADDQ         $8, R9
	DECQ         R10
	JNZ          elim32k

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, CX
	JMP     elim32

elim4:
	CMPQ    CX, $4
	JLT     elim1
	VMOVUPD (DI), Y0
	MOVQ    SI, R8
	MOVQ    DX, R9
	MOVQ    BX, R10

elim4k:
	VBROADCASTSD (R9), Y8
	VMULPD       (R8), Y8, Y9
	VSUBPD       Y9, Y0, Y0
	ADDQ         AX, R8
	ADDQ         $8, R9
	DECQ         R10
	JNZ          elim4k

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     elim4

elim1:
	TESTQ  CX, CX
	JZ     elimdone
	VMOVSD (DI), X0
	MOVQ   SI, R8
	MOVQ   DX, R9
	MOVQ   BX, R10

elim1k:
	VMOVSD (R9), X8
	VMULSD (R8), X8, X9
	VSUBSD X9, X0, X0
	ADDQ   AX, R8
	ADDQ   $8, R9
	DECQ   R10
	JNZ    elim1k

	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    elim1

elimdone:
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL  eaxIn+0(FP), AX
	MOVL  ecxIn+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
