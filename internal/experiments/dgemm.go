package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/repo"
	"repro/internal/taskrt"
)

// dgemmCodelet is the case study's DGEMM task interface as the repository
// holds it: dgemm_goto on x86 (runnable; payloads are the A, B and C tile
// views in access order) and dgemm_cublas on gpu (simulation-only). It keeps
// the name "dgemm", not the interface's: performance models, worker
// registries and the workers' probes know the codelet by it.
func dgemmCodelet() *taskrt.Codelet {
	cl, err := repo.Codelet("dgemm", repo.NewWithLibrary().VariantsFor(repo.IfaceDGEMM))
	if err != nil {
		panic(err) // static definition
	}
	return cl
}

// tileGrid is the row-major T×T decomposition of an n×n matrix into
// tile×tile tiles (edge tiles clipped) every tiled graph here is built over.
type tileGrid struct {
	tiles []partition.Tile
	T     int
}

func newTileGrid(n, tile int) (tileGrid, error) {
	if n <= 0 || tile <= 0 || tile > n {
		return tileGrid{}, fmt.Errorf("experiments: bad tile grid n=%d tile=%d", n, tile)
	}
	tiles, err := partition.Grid2D(n, n, tile, tile)
	_, T := partition.GridDims(n, n, tile, tile)
	return tileGrid{tiles, T}, err
}

// dim returns the extent of tile row (and column) i.
func (g tileGrid) dim(i int) int { return g.tiles[i*g.T+i].M }

// handles registers one handle per tile, in grid order: views into m when it
// is non-nil, size-only otherwise.
func (g tileGrid) handles(rt *taskrt.Runtime, name string, m *blas.Matrix) []*taskrt.Handle {
	hs := make([]*taskrt.Handle, len(g.tiles))
	for idx, t := range g.tiles {
		var payload any
		if m != nil {
			payload = m.Sub(t.Row, t.Col, t.M, t.N)
		}
		hs[idx] = rt.NewHandle(indexed(name, t.I, t.J), int64(t.M)*int64(t.N)*8, payload)
	}
	return hs
}

// indexed returns name[i,j,...], formatted on the stack: the spelling of every
// tile handle's name and every factorization task's label here.
func indexed(name string, idx ...int) string {
	var arr [48]byte
	buf := append(append(arr[:0], name...), '[')
	for n, i := range idx {
		if n > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(i), 10)
	}
	return string(append(buf, ']'))
}

// SubmitTiledGEMM builds the StarPU-style tiled DGEMM task graph for
// C += A·B with n×n matrices and tile×tile tiles: one task per (i, j, k)
// tile triple, with read accesses on A(i,k) and B(k,j) and a readwrite
// access on C(i,j) (the k-chain on each C tile orders accumulation, exactly
// how the StarPU DGEMM of the paper's evaluation decomposes).
//
// When mats is nil the graph carries size-only handles (simulation); with
// mats the handles reference real matrix tile views.
func SubmitTiledGEMM(rt *taskrt.Runtime, n, tile int, mats *GemmMatrices) error {
	g, err := newTileGrid(n, tile)
	if err != nil {
		return err
	}
	if mats == nil {
		mats = &GemmMatrices{}
	}
	hA, hB, hC := g.handles(rt, "A", mats.A), g.handles(rt, "B", mats.B), g.handles(rt, "C", mats.C)
	cl, T := dgemmCodelet(), g.T

	// Build the whole graph first and submit it as one batch: dependency
	// derivation is identical to per-task Submit calls, but the runtime grows
	// its tables once for the T³ tasks. The tasks and their access lists are
	// cut from two slabs, not allocated one by one; a task is only ever
	// reached through its pointer into the slab.
	// Every label, C[i,j]+=A[i,k]*B[k,j], is a substring of one string, grown
	// once to its exact length (each tile's name appears in T labels).
	tasks := make([]taskrt.Task, T*T*T)
	accesses := make([]taskrt.Access, 3*len(tasks))
	graph := make([]*taskrt.Task, 0, len(tasks))
	size := len(tasks) * len("+=*")
	for _, hs := range [][]*taskrt.Handle{hA, hB, hC} {
		for _, h := range hs {
			size += T * len(h.Name)
		}
	}
	var labels strings.Builder
	labels.Grow(size)
	for i := 0; i < T; i++ {
		for j := 0; j < T; j++ {
			for k := 0; k < T; k++ {
				t, acc := &tasks[len(graph)], accesses[3*len(graph):][:3:3]
				a, b, c := hA[i*T+k], hB[k*T+j], hC[i*T+j]
				acc[0], acc[1], acc[2] = taskrt.R(a), taskrt.R(b), taskrt.RW(c)
				from := labels.Len()
				labels.WriteString(c.Name)
				labels.WriteString("+=")
				labels.WriteString(a.Name)
				labels.WriteByte('*')
				labels.WriteString(b.Name)
				// Tile extents differ at the edges; flops follow the actual
				// tile triple.
				t.Codelet, t.Accesses, t.Label = cl, acc, labels.String()[from:]
				t.Flops = blas.FlopsGEMM(g.dim(i), g.dim(j), g.dim(k))
				graph = append(graph, t)
			}
		}
	}
	return rt.SubmitBatch(graph)
}

// GemmMatrices bundles real operands for real-mode tiled DGEMM.
type GemmMatrices struct {
	A, B, C *blas.Matrix
}

// NewGemmMatrices allocates and seeds n×n operands.
func NewGemmMatrices(n int, seed int64) *GemmMatrices {
	m := &GemmMatrices{A: blas.NewMatrix(n, n), B: blas.NewMatrix(n, n), C: blas.NewMatrix(n, n)}
	m.A.FillRandom(seed)
	m.B.FillRandom(seed + 1)
	return m
}

// SimDGEMM runs the tiled DGEMM graph in simulation on the given platform
// and returns the execution report.
func SimDGEMM(pl *core.Platform, n, tile int, scheduler string) (*taskrt.Report, error) {
	return Run(taskrt.Config{Platform: pl, Mode: taskrt.Sim, Scheduler: scheduler}, GEMM(n, tile, nil))
}
