#include "textflag.h"

// func fmaLoopAVX2(iters int64)
//
// Ten independent 256-bit FMA chains per iteration: enough to cover the
// latency of two FMA ports, so the loop runs at the core's FMA issue rate.
// All registers are zero; FMA throughput does not depend on the values.
TEXT ·fmaLoopAVX2(SB), NOSPLIT, $0-8
	MOVQ   iters+0(FP), CX
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

	PCALIGN $64
loop:
	VFMADD231PD Y10, Y11, Y0
	VFMADD231PD Y10, Y11, Y1
	VFMADD231PD Y10, Y11, Y2
	VFMADD231PD Y10, Y11, Y3
	VFMADD231PD Y10, Y11, Y4
	VFMADD231PD Y10, Y11, Y5
	VFMADD231PD Y10, Y11, Y6
	VFMADD231PD Y10, Y11, Y7
	VFMADD231PD Y10, Y11, Y8
	VFMADD231PD Y10, Y11, Y9
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func fmaChainsScalar(iters int64)
//
// Eight independent scalar FMA chains per iteration: the compute half of the
// host-speed reference (hostref.go). Scalar, so it does not lower the core's
// AVX clock for the rep that follows. The loop starts on a cache line of its
// own: as a Go loop its speed depended on where the linker had put it (0.97
// or 1.53 ms for one call, by 32 bytes of offset), and with it every scaled
// metric of the benchmark, from one build to the next.
TEXT ·fmaChainsScalar(SB), NOSPLIT, $0-8
	MOVQ   iters+0(FP), CX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	VXORPD X8, X8, X8
	VXORPD X9, X9, X9

	PCALIGN $64
chains:
	VFMADD231SD X8, X9, X0
	VFMADD231SD X8, X9, X1
	VFMADD231SD X8, X9, X2
	VFMADD231SD X8, X9, X3
	VFMADD231SD X8, X9, X4
	VFMADD231SD X8, X9, X5
	VFMADD231SD X8, X9, X6
	VFMADD231SD X8, X9, X7
	DECQ CX
	JNZ  chains
	RET
