package blas

import (
	"testing"
	"time"
)

// BenchmarkTileKernels times the Cholesky and LU tile kernels and the tile
// DGEMM at the benchmark's tile size the way the task runtime calls them: on
// strided 128×128 views of 1024×1024 parents, a different tile every call, so
// the operands arrive from L2/L3 rather than sitting in L1. The GF/s metric
// counts the kernel call alone (timed by hand: stopping and starting the
// benchmark timer costs more than a 128-tile kernel); ns/op also holds
// restoring the tile a factorization or solve overwrites — put, whose row
// copies are the runtime.memmove row of a profile (no tile kernel calls
// memmove). `make bench-blas` runs it; BenchmarkTileKernels/GemmNT etc. under
// -cpuprofile is the profile EXPERIMENTS.md quotes.
func BenchmarkTileKernels(b *testing.B) {
	const n, tile = 1024, 128
	const grid = n / tile
	rnd := randomMatrix(tile, tile, 2)
	for _, k := range []struct {
		name    string
		flops   float64
		operand *Matrix // what every tile of the read-only parent holds
		fresh   *Matrix // what the written tile holds before each call; nil lets an update accumulate
		run     func(a, b, c *Matrix) error
	}{
		{"Potrf", FlopsPOTRF(tile), rnd, symDiagDominant(tile, 1),
			func(_, _, c *Matrix) error { return Potrf(c) }},
		{"TrsmRLT", FlopsTRSM(tile, tile), factoredSPD(tile, 1), rnd,
			func(l, _, c *Matrix) error { return TrsmRLT(l, c) }},
		{"SyrkNT", FlopsSYRK(tile, tile), rnd, nil,
			func(a, _, c *Matrix) error { return SyrkNT(a, c) }},
		{"GemmNT", FlopsGEMM(tile, tile, tile), rnd, nil, GemmNT},
		{"GemmPacked", FlopsGEMM(tile, tile, tile), rnd, nil,
			func(a, b, c *Matrix) error { return GemmPacked(a, b, c, DefaultBlock) }},
		{"Getrf", FlopsGETRF(tile), rnd, diagDominant(tile, 1),
			func(_, _, c *Matrix) error { return Getrf(c) }},
		{"TrsmLLUnit", FlopsTRSM(tile, tile), factoredDD(tile, 1), rnd,
			func(l, _, c *Matrix) error { return TrsmLLUnit(l, c) }},
		{"TrsmRU", FlopsTRSM(tile, tile), factoredDD(tile, 1), rnd,
			func(u, _, c *Matrix) error { return TrsmRU(u, c) }},
		{"GemmSub", FlopsGEMM(tile, tile, tile), rnd, nil, GemmSub},
	} {
		b.Run(k.name, func(b *testing.B) {
			tileAt := func(p *Matrix, i int) *Matrix {
				i %= grid * grid
				return p.Sub(i/grid*tile, i%grid*tile, tile, tile)
			}
			put := func(dst, src *Matrix) {
				for r := 0; r < tile; r++ {
					copy(dst.Data[r*dst.Stride:][:tile], src.Data[r*src.Stride:][:tile])
				}
			}
			reads, writes := NewMatrix(n, n), NewMatrix(n, n)
			for i := 0; i < grid*grid; i++ {
				put(tileAt(reads, i), k.operand)
			}
			var busy time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, y, c := tileAt(reads, 5*i), tileAt(reads, 5*i+23), tileAt(writes, 3*i)
				if k.fresh != nil {
					put(c, k.fresh)
				}
				t0 := time.Now()
				if err := k.run(x, y, c); err != nil {
					b.Fatal(err)
				}
				busy += time.Since(t0)
			}
			b.ReportMetric(k.flops*float64(b.N)/busy.Seconds()/1e9, "GF/s")
		})
	}
}

// BenchmarkMicroKernel times the installed micro-kernels alone at kb = 128 on
// operands that stay in L1 — one 6×128 A strip, one or two 128×8 B strips, a
// 6×8 or 6×16 tile of C. InPlace (rows of a 128-wide A) and Packed (the
// k-major tail strip) are the 6×8 kernel on both A layouts the driver passes;
// Pair512 is the AVX-512 pair kernel on A in place, two strips a call,
// skipped where it is not installed. GF/s counts each call's own flops, so the
// rows compare per flop. Read beside probe.fma_gflops (a 256-bit probe), it is
// the kernel's share of the FMA peak with packing and cache misses
// (BenchmarkTileKernels) taken out. `make bench-blas` runs it.
func BenchmarkMicroKernel(b *testing.B) {
	const kb = packDepth
	pb := randomMatrix(2*kb, microN, 3).Data
	c := make([]float64, microM*2*microN)
	inPlace := randomMatrix(microM, kb, 4).Data
	for _, l := range []struct {
		name     string
		kernel   microKernelFunc
		width    int
		a        []float64
		ars, aks int
	}{
		{"InPlace", microKernel, microN, inPlace, kb, 1},
		{"Packed", microKernel, microN, randomMatrix(kb, microM, 4).Data, 1, microM},
		{"Pair512", microKernel2, 2 * microN, inPlace, kb, 1},
	} {
		b.Run(l.name, func(b *testing.B) {
			if l.kernel == nil {
				b.Skip("no AVX-512 pair kernel on this CPU or build")
			}
			for i := 0; i < b.N; i++ {
				l.kernel(kb, l.a, l.ars, l.aks, pb, c, l.width, i&1 == 1) // alternate the sign so c stays bounded
			}
			b.ReportMetric(FlopsGEMM(microM, l.width, kb)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
		})
	}
}
