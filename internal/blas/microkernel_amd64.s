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
