package blas

import "fmt"

// VecAdd computes a[i] += b[i], the paper's annotated example task
// ("vectoradd" with A:readwrite, B:read).
func VecAdd(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("blas: vecadd length mismatch %d != %d", len(a), len(b))
	}
	for i := range a {
		a[i] += b[i]
	}
	return nil
}
