package experiments

import (
	"fmt"

	"repro/internal/taskrt"
)

// The stencil workload complements DGEMM with the opposite graph shape: a
// 1-D Jacobi heat-diffusion sweep decomposed into chunks, where each
// iteration's chunk task reads its own and both neighbour chunks of the
// previous iteration (halo exchange) and writes its chunk. Dependency chains
// dominate, data moves every step, and compute per byte is low — the regime
// where offloading pays least, which is why the paper's execution groups let
// programmers pin such tasks to the host.

// stencilChunk is the real-mode payload: full double buffers plus the chunk
// bounds. Handles order the tasks; the buffers carry the numbers.
type stencilChunk struct {
	src, dst []float64
	lo, hi   int
}

func realStencilChunk(p *stencilChunk) error {
	n := len(p.src)
	for i := p.lo; i < p.hi; i++ {
		left := p.src[i]
		if i > 0 {
			left = p.src[i-1]
		}
		right := p.src[i]
		if i < n-1 {
			right = p.src[i+1]
		}
		p.dst[i] = 0.5*p.src[i] + 0.25*(left+right)
	}
	return nil
}

// stencilCodelet returns the Jacobi chunk codelet: a real x86 kernel plus a
// simulation-only gpu variant with a lower speed factor (stencils reach a
// smaller fraction of peak than GEMM).
func stencilCodelet() *taskrt.Codelet {
	cl, err := taskrt.NewCodelet("jacobi1d",
		taskrt.Impl{Arch: "x86", Func: taskrt.Kernel1(realStencilChunk)},
		taskrt.Impl{Arch: "gpu", SpeedFactor: 0.4},
	)
	if err != nil {
		panic(err) // static definition
	}
	return cl
}

// SubmitStencil builds the iterative Jacobi task graph: chunks × iters
// tasks. The chunk handle of iteration k is read by three tasks of iteration
// k+1 (self + neighbours) and written by exactly one, giving the classic
// halo-exchange dependency pattern. bufs supplies real double buffers (nil
// for simulation-only graphs).
func SubmitStencil(rt *taskrt.Runtime, n, chunks, iters int, bufs *StencilBuffers) error {
	if n <= 0 || chunks <= 0 || iters <= 0 || chunks > n {
		return fmt.Errorf("experiments: bad stencil extent n=%d chunks=%d iters=%d", n, chunks, iters)
	}
	// Chunk c covers [c·per, end(c)): the last one takes the remainder, and
	// each generation's handle of a chunk is as large as the chunk.
	per := n / chunks
	end := func(c int) int {
		if c == chunks-1 {
			return n
		}
		return (c + 1) * per
	}
	newGen := func(it int) []*taskrt.Handle {
		gen := make([]*taskrt.Handle, chunks)
		for c := range gen {
			gen[c] = rt.NewHandle(fmt.Sprintf("u%d[%d]", it, c), int64(end(c)-c*per)*8, nil)
		}
		return gen
	}
	cl := stencilCodelet()
	gen := newGen(0)
	for it := 0; it < iters; it++ {
		next := newGen(it + 1)
		for c := 0; c < chunks; c++ {
			lo, hi := c*per, end(c)
			// The written handle carries the payload (first access).
			if bufs != nil {
				src, dst := bufs.forIteration(it)
				next[c].Payload = &stencilChunk{src: src, dst: dst, lo: lo, hi: hi}
			}
			accesses := []taskrt.Access{taskrt.W(next[c]), taskrt.R(gen[c])}
			if c > 0 {
				accesses = append(accesses, taskrt.R(gen[c-1]))
			}
			if c < chunks-1 {
				accesses = append(accesses, taskrt.R(gen[c+1]))
			}
			if err := rt.Submit(&taskrt.Task{
				Codelet:  cl,
				Accesses: accesses,
				Flops:    4 * float64(hi-lo),
				Label:    indexed("jacobi", it, c),
			}); err != nil {
				return err
			}
		}
		gen = next
	}
	return nil
}

// StencilBuffers holds the double-buffered state of a real sweep.
type StencilBuffers struct {
	A, B []float64
}

// NewStencilBuffers seeds n points with a deterministic profile.
func NewStencilBuffers(n int) *StencilBuffers {
	b := &StencilBuffers{A: make([]float64, n), B: make([]float64, n)}
	for i := range b.A {
		b.A[i] = float64(i % 13)
	}
	return b
}

// forIteration returns (src, dst) for iteration it under double buffering.
func (b *StencilBuffers) forIteration(it int) (src, dst []float64) {
	if it%2 == 0 {
		return b.A, b.B
	}
	return b.B, b.A
}

// Final returns the buffer holding the result after iters iterations.
func (b *StencilBuffers) Final(iters int) []float64 {
	_, dst := b.forIteration(iters - 1)
	return dst
}

// serialJacobi runs the reference sweep in place over a copy of u0.
func serialJacobi(u0 []float64, iters int) []float64 {
	n := len(u0)
	cur := append([]float64(nil), u0...)
	nxt := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			left := cur[i]
			if i > 0 {
				left = cur[i-1]
			}
			right := cur[i]
			if i < n-1 {
				right = cur[i+1]
			}
			nxt[i] = 0.5*cur[i] + 0.25*(left+right)
		}
		cur, nxt = nxt, cur
	}
	return cur
}

// StencilSweep is experiment Ext-G: the halo-exchange workload across
// platforms and schedulers — the counterpoint to Figure 5, showing where the
// GPU platform does NOT pay off.
func StencilSweep(n, chunks, iters int) (*Result, error) {
	res := &Result{
		Name:    fmt.Sprintf("Ext-G: 1-D Jacobi stencil, n=%d chunks=%d iters=%d (dmda)", n, chunks, iters),
		Headers: []string{"platform", "makespan[s]", "gpu-tasks", "transfers[MB]"},
	}
	g, err := Stencil(n, chunks, iters, nil).Graph()
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"xeon-1core", "xeon-cpu", "xeon-2gpu"} {
		rep, err := simOn(g, name, "dmda")
		if err != nil {
			return nil, err
		}
		res.AddRow(name, f4(rep.MakespanSeconds), onArch(rep, "gpu"), mb(rep))
	}
	res.Notes = append(res.Notes,
		"low arithmetic intensity: the GPU platform should show little or no advantage over 8 cores")
	return res, nil
}
