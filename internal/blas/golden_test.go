package blas

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/kernels.golden from this build's output")

// goldenKernels are the kernels whose output bits testdata/kernels.golden
// pins: the eight factor kernels and the tile DGEMM as the codelet calls it.
func goldenKernels() []factorCase {
	gemm := factorCase{name: "GemmPacked",
		shapes: func(n, m, k int) [][2]int { return [][2]int{{m, k}, {k, n}, {m, n}} },
		fill: func(t []*Matrix, seed int64) {
			for i := range t {
				fillWhere(t[i], randomMatrix(t[i].Rows, t[i].Cols, seed+int64(i)), all)
			}
		},
		kernel: func(t []*Matrix) error { return GemmPacked(t[0], t[1], t[2], DefaultBlock) }}
	return append(append([]factorCase(nil), factorCases...), gemm)
}

// TestKernelBitsGolden hashes the output bits of every tile kernel — the
// whole parent the strided operands are carved from, guard cells included —
// at tile orders 128, 100, 37 and 256 and compares with the hashes recorded
// on the AVX2 kernel. A change that only moves where the same arithmetic
// happens (who writes C back, how a panel is packed) must leave the file
// byte-identical; one that reorders a sum re-records the rows it moves
// (`go test ./internal/blas -run TestKernelBitsGolden -update`) and says
// which. The portable kernel rounds every product (no FMA), so its bits
// differ and the test needs the assembly.
func TestKernelBitsGolden(t *testing.T) {
	if KernelISA() != "avx2" {
		t.Skip("the golden bits are the AVX2/FMA kernel's")
	}
	var got strings.Builder
	for _, fc := range goldenKernels() {
		for _, n := range []int{128, 100, 37, 256} {
			shapes := fc.shapes(n, n, n)
			parent := carveParent(shapes, 1e30)
			tiles := carve(parent, shapes)
			fc.fill(tiles, int64(n))
			if err := fc.kernel(tiles); err != nil {
				t.Fatalf("%s n=%d: %v", fc.name, n, err)
			}
			h := sha256.New()
			var w [8]byte
			for _, v := range parent.Data {
				binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
				h.Write(w[:])
			}
			fmt.Fprintf(&got, "%s %d %x\n", fc.name, n, h.Sum(nil))
		}
	}
	const path = "testdata/kernels.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, this build produced %d", path, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("kernel bits moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
