// Package blas implements the dense linear-algebra kernels the paper's case
// study exercises: double-precision matrix multiplication (DGEMM, the
// GotoBLAS2/CuBLAS workload of Section IV-D), matrix-vector multiplication,
// AXPY and the vector addition of the paper's annotation example, plus the
// Cholesky and LU tile kernels of the factorization experiments (factor.go).
// DGEMM comes in serial naive, cache-blocked and packed variants so the task
// runtime has genuinely different implementations to choose between; the
// packed driver (pack.go) is also what every factorization kernel runs on.
package blas

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix view. Stride is the distance between
// row starts in Data, allowing zero-copy tile views into a parent matrix.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("blas: negative matrix extent %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Sub returns a view of the rows×cols tile with upper-left corner (i, j).
// The view shares storage with m. Zero extents are legal on every edge
// (Sub(m.Rows, j, 0, cols) included) and give an empty view.
func (m *Matrix) Sub(i, j, rows, cols int) *Matrix {
	if i < 0 || j < 0 || rows < 0 || cols < 0 || i+rows > m.Rows || j+cols > m.Cols {
		panic(fmt.Sprintf("blas: Sub(%d,%d,%d,%d) out of %dx%d", i, j, rows, cols, m.Rows, m.Cols))
	}
	v := m.view(i, j, rows, cols)
	return &v
}

// view is Sub by value and without the bounds check, for kernels that carve
// an operand they have already validated: blocked algorithms take many views
// per call and must not allocate. A zero-height view addresses nothing — its
// corner may lie one row past the end of Data.
func (m *Matrix) view(i, j, rows, cols int) Matrix {
	v := Matrix{Rows: rows, Cols: cols, Stride: m.Stride}
	if rows > 0 {
		v.Data = m.Data[i*m.Stride+j:]
	}
	return v
}

// Clone returns a compact deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Stride:i*out.Stride+m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return out
}

// Zero clears every element of the view.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// FillRandom fills the view with deterministic pseudo-random values in
// [-1, 1) from the given seed.
func (m *Matrix) FillRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 2*rng.Float64() - 1
		}
	}
}

// FillIdentity writes the identity pattern into a square view.
func (m *Matrix) FillIdentity() {
	m.Zero()
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
}

// Equal reports whether two matrices have identical shape and elements
// within tolerance tol. A NaN on either side is a difference.
func Equal(a, b *Matrix, tol float64) bool {
	d := MaxDiff(a, b)
	return d <= tol && !math.IsInf(d, 1) // +Inf is "no answer", whatever tol says
}

// MaxDiff returns the maximum absolute element difference between two
// same-shaped matrices, +Inf on a shape mismatch or as soon as any element
// difference is NaN — every `diff > tol` verification in the repo goes
// through here, and NaN compares false with everything.
func MaxDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	max := 0.0
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			d := math.Abs(a.At(i, j) - b.At(i, j))
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// FlopsGEMM returns the floating-point operation count of an m×k by k×n
// multiply-accumulate (2·m·n·k).
func FlopsGEMM(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}
