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
// copies are the only runtime.memmove row of a profile on an AVX2 host: there
// both B packs go through registers, the column deal and the row transpose,
// and no tile kernel calls memmove at this size. `make bench-blas` runs it;
// BenchmarkTileKernels/GemmNT etc. under -cpuprofile is the profile
// EXPERIMENTS.md quotes.
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

// BenchmarkPack times the packed driver's two B packs alone, the "pack" of a
// kernel-versus-pack split: Cols is packCols, which packs B as stored (GemmSub,
// GemmPacked, and the updates inside TrsmLLUnit, Getrf and TrsmRU), and Rows
// is packRows into microN-wide strips, which packs Bᵀ (GemmNT, SyrkNT and the
// updates inside Potrf and TrsmRLT). Each call packs a 128×128 view of a
// 1024×1024 parent, a different tile every call, into one buffer; GB/s counts
// the bytes of the view. `make bench-blas` runs it.
func BenchmarkPack(b *testing.B) {
	const n, tile = 1024, 128
	const grid = n / tile
	parent := randomMatrix(n, n, 5)
	views := make([]*Matrix, grid*grid)
	for i := range views {
		views[i] = parent.Sub(i/grid*tile, i%grid*tile, tile, tile)
	}
	pb := make([]float64, tile*tile)
	for _, p := range []struct {
		name string
		pack func(m *Matrix)
	}{
		{"Cols", func(m *Matrix) { packCols(m, 0, 0, tile, tile, pb) }},
		{"Rows", func(m *Matrix) { packRows(m, 0, 0, tile, tile, microN, pb) }},
	} {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.pack(views[5*i%len(views)])
			}
			b.ReportMetric(float64(tile*tile*8)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

// BenchmarkMicroKernel times the installed tile's micro-kernel alone at
// kb = 128 on operands that stay in L1 — one tile.m×128 A strip, one or two
// 128×8 B strips, a tile of C — and, on AVX-512 hosts, the AVX2 6×8 kernel
// beside it. Each tile is named by its shape (8x16, 6x8) and runs on both A
// layouts packedStrip passes: InPlace (rows of a 128-wide A) and Packed (the
// k-major tail strip). GF/s counts each call's own flops, so the rows compare
// per flop. Read beside probe.fma_gflops (a 256-bit probe), it is the
// kernel's share of the FMA peak with packing and cache misses
// (BenchmarkTileKernels) taken out. `make bench-blas` runs it.
func BenchmarkMicroKernel(b *testing.B) {
	const kb = packDepth
	tiles := []regTile{tile}
	for _, rt := range asmTiles() {
		if rt.m != tile.m || rt.n != tile.n {
			tiles = append(tiles, rt)
		}
	}
	for _, rt := range tiles {
		pb := randomMatrix(kb*rt.n/microN, microN, 3).Data
		c := make([]float64, rt.m*rt.n)
		for _, l := range []struct {
			name     string
			a        []float64
			ars, aks int
		}{
			{"InPlace", randomMatrix(rt.m, kb, 4).Data, kb, 1},
			{"Packed", randomMatrix(kb, rt.m, 4).Data, 1, rt.m},
		} {
			b.Run(rt.shape()+"/"+l.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rt.kernel(kb, l.a, l.ars, l.aks, pb, c, rt.n, i&1 == 1) // alternate the sign so c stays bounded
				}
				b.ReportMetric(FlopsGEMM(rt.m, rt.n, kb)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
			})
		}
	}
}
