//go:build amd64 && !purego

#include "textflag.h"

// func microAVX2(kb int64, pa, pb, out *float64)
//
// 4×8 DGEMM micro-kernel: out[i*8+j] = Σ_p pa[p*4+i]·pb[p*8+j].
// Y0..Y7 hold the accumulator tile (two YMM per row of four doubles each);
// every k step loads one 8-wide B vector pair, broadcasts the four A values
// and issues eight FMAs (64 flops). out is overwritten with the k-sum; the
// Go caller adds the valid sub-rectangle into C.
TEXT ·microAVX2(SB), NOSPLIT, $0-32
	MOVQ kb+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ out+24(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13

	VBROADCASTSD (SI), Y8
	VBROADCASTSD 8(SI), Y9
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11

	VFMADD231PD Y12, Y8, Y0
	VFMADD231PD Y13, Y8, Y1
	VFMADD231PD Y12, Y9, Y2
	VFMADD231PD Y13, Y9, Y3
	VFMADD231PD Y12, Y10, Y4
	VFMADD231PD Y13, Y10, Y5
	VFMADD231PD Y12, Y11, Y6
	VFMADD231PD Y13, Y11, Y7

	ADDQ $32, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
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
