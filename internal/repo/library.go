package repo

import (
	"repro/internal/blas"
	"repro/internal/pragma"
	"repro/internal/taskrt"
)

// The built-in library variants of the paper's case study. The DGEMM
// interface carries three implementations over the A, B and C tile views of
// C += A·B, in access order:
//
//   - dgemm_goto: the GotoBLAS2 stand-in, the packed micro-kernel path for
//     x86, which keeps its locality on strided tile views (real-mode
//     runnable);
//   - dgemm_naive: the textbook triple loop on x86, a slower alternative
//     for the autotuner to rank against dgemm_goto;
//   - dgemm_cublas: the CuBLAS stand-in for gpu units — simulation-only,
//     since no physical GPU is present; its cost comes from the PDL
//     calibration.
//
// The vecadd interface mirrors the paper's annotation example.

var (
	dgemmGoto = taskrt.Kernel3(func(a, b, c *blas.Matrix) error {
		return blas.GemmPacked(a, b, c, blas.DefaultBlock)
	})
	vecAdd = taskrt.Kernel2(blas.VecAdd)
)

// Interface names of the built-in library.
const (
	IfaceDGEMM  = "Idgemm"
	IfaceVecAdd = "Ivecadd"
)

// WithLibrary registers the built-in library variants into r and returns r
// for chaining.
func WithLibrary(r *Repository) (*Repository, error) {
	rwRead3 := []pragma.Param{
		{Name: "A", Mode: taskrt.Read},
		{Name: "B", Mode: taskrt.Read},
		{Name: "C", Mode: taskrt.ReadWrite},
	}
	variants := []*Variant{
		{
			Interface: IfaceDGEMM, Name: "dgemm_goto",
			Targets: []string{"x86", "smp", "starpu", "seq"},
			Params:  rwRead3, Arch: "x86",
			Kernel: dgemmGoto, Origin: Library,
		},
		{
			Interface: IfaceDGEMM, Name: "dgemm_naive",
			Targets: []string{"x86", "seq"},
			Params:  rwRead3, Arch: "x86",
			Kernel: taskrt.Kernel3(blas.GemmNaive), SpeedFactor: 0.25, Origin: Library,
		},
		{
			Interface: IfaceDGEMM, Name: "dgemm_cublas",
			Targets: []string{"cuda", "opencl", "host-device", "multi-gpu"},
			Params:  rwRead3, Arch: "gpu",
			Origin: Library, // simulation-only: no physical GPU present
		},
		{
			Interface: IfaceVecAdd, Name: "vecadd_x86",
			Targets: []string{"x86", "smp", "starpu", "seq"},
			Params: []pragma.Param{
				{Name: "A", Mode: taskrt.ReadWrite},
				{Name: "B", Mode: taskrt.Read},
			},
			Arch: "x86", Kernel: vecAdd, Origin: Library,
		},
		{
			Interface: IfaceVecAdd, Name: "vecadd_gpu",
			Targets: []string{"cuda", "opencl", "host-device"},
			Params: []pragma.Param{
				{Name: "A", Mode: taskrt.ReadWrite},
				{Name: "B", Mode: taskrt.Read},
			},
			Arch: "gpu", Origin: Library,
		},
	}
	for _, v := range variants {
		if err := r.Add(v); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// NewWithLibrary returns a repository preloaded with the built-in library.
func NewWithLibrary() *Repository {
	r, err := WithLibrary(New())
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return r
}

// DefaultKernels maps the implementation names used in the examples'
// annotated sources to runnable kernels, so user variants parsed from source
// become executable (the repository's "binary" for that variant).
func DefaultKernels() map[string]func(*taskrt.TaskContext) error {
	return map[string]func(*taskrt.TaskContext) error{
		"vecadd01":  vecAdd,
		"dgemm_seq": dgemmGoto,
		"dgemm01":   dgemmGoto,
	}
}
