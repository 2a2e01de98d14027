package blas

import (
	"fmt"
	"runtime"
)

// shapeGEMM validates C = A·B conformability and returns m, n, k.
func shapeGEMM(a, b, c *Matrix) (m, n, k int, err error) {
	if a.Cols != b.Rows {
		return 0, 0, 0, fmt.Errorf("blas: gemm inner dims %d != %d", a.Cols, b.Rows)
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		return 0, 0, 0, fmt.Errorf("blas: gemm output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols)
	}
	return a.Rows, b.Cols, a.Cols, nil
}

// DefaultBlock is the cache-blocking factor of the scalar blocked kernels,
// sized so three blocks fit comfortably in a 256 kB L2. The packed path has
// its own panel depth (packDepth in pack.go).
const DefaultBlock = 64

// clampBlock normalizes a blocking-factor argument: non-positive values take
// DefaultBlock. Every kernel accepting a block parameter validates it
// through this one helper.
func clampBlock(block int) int {
	if block < 1 {
		return DefaultBlock
	}
	return block
}

// clampWorkers normalizes a worker-count argument: non-positive values take
// GOMAXPROCS, and the result is clamped to [1, limit] so callers never spawn
// more goroutines than there are parallel grains (limit <= 0 means no upper
// bound). Every kernel accepting a workers parameter validates it through
// this one helper.
func clampWorkers(workers, limit int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if limit > 0 && workers > limit {
		workers = limit
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// GemmNaive computes C += A·B with the textbook triple loop (ikj order so
// the inner loop streams rows). This is the "single" baseline kernel of the
// paper's input program before any translation.
func GemmNaive(a, b, c *Matrix) error {
	m, n, k, err := shapeGEMM(a, b, c)
	if err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		crow := c.Data[i*c.Stride : i*c.Stride+n]
		for l := 0; l < k; l++ {
			av := a.At(i, l)
			if av == 0 {
				continue
			}
			brow := b.Data[l*b.Stride : l*b.Stride+n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return nil
}

// GemmBlocked computes C += A·B with three-level cache blocking, the
// single-threaded scalar baseline the packed micro-kernel path is measured
// against.
func GemmBlocked(a, b, c *Matrix, block int) error {
	m, n, k, err := shapeGEMM(a, b, c)
	if err != nil {
		return err
	}
	block = clampBlock(block)
	for ii := 0; ii < m; ii += block {
		iMax := min(ii+block, m)
		for ll := 0; ll < k; ll += block {
			lMax := min(ll+block, k)
			for jj := 0; jj < n; jj += block {
				jMax := min(jj+block, n)
				// Rows resliced to the block, so the inner loop has no bounds
				// check; each element's sum runs over l in the same order.
				for i := ii; i < iMax; i++ {
					crow := c.Data[i*c.Stride+jj : i*c.Stride+jMax]
					for l, av := range a.Data[i*a.Stride+ll : i*a.Stride+lMax] {
						if av == 0 {
							continue
						}
						brow := b.Data[(ll+l)*b.Stride+jj:][:len(crow)]
						for j, bv := range brow {
							crow[j] += av * bv
						}
					}
				}
			}
		}
	}
	return nil
}
