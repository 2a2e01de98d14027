// Multiplatform demonstrates the paper's portability claim: one annotated
// program, three different target PDL descriptions — a CPU-only node, the
// GPU testbed and a Cell-like blade — produce three different mappings and
// compile plans, "without the need to modify the source program"
// (Section I).
//
// Run with:
//
//	go run ./examples/multiplatform
package main

import (
	"fmt"
	"log"

	"repro/internal/codegen"
	"repro/internal/csrc"
	"repro/internal/discover"
	"repro/internal/mapping"
	"repro/internal/pragma"
	"repro/internal/repo"
	"repro/internal/taskrt"
)

// program provides three implementation variants of the same task interface
// — sequential x86, OpenCL/CUDA gpu, and Cell SPE — plus one call site.
const program = `
#pragma cascabel task : x86, seq
    : Iscale
    : scale_cpu
    : ( V: readwrite )
void scale(double *V) { /* V[i] *= 2 */ }

#pragma cascabel task : opencl, cuda
    : Iscale
    : scale_gpu
    : ( V: readwrite )
void scale_gpu_impl(double *V) { /* gpu kernel */ }

#pragma cascabel task : cell
    : Iscale
    : scale_spe
    : ( V: readwrite )
void scale_spe_impl(double *V) { /* spe kernel */ }

int main() {
    #pragma cascabel execute Iscale (V:BLOCK:N)
    scale( V );
    return 0;
}
`

func main() {
	prog, err := csrc.ParseProgram(program)
	if err != nil {
		log.Fatal(err)
	}
	for _, target := range []string{"xeon-cpu", "xeon-2gpu", "cell-blade"} {
		platform := discover.MustPlatform(target)
		repository := repo.New()
		// The scale kernels: the x86 variant is runnable, the accelerator
		// variants exist as simulated codelets.
		kernels := map[string]func(*taskrt.TaskContext) error{
			"scale_cpu": taskrt.Kernel1(func(v []float64) error {
				for i := range v {
					v[i] *= 2
				}
				return nil
			}),
		}
		if err := repository.RegisterProgram(prog, kernels); err != nil {
			log.Fatal(err)
		}
		plan, err := mapping.PlanProgram(prog, repository, platform)
		if err != nil {
			log.Fatalf("%s: %v", target, err)
		}
		fmt.Printf("=== target %s ===\n", target)
		fmt.Print(plan.Summary())
		fmt.Print(codegen.CompilePlan(plan))

		// Execute the translated graph in simulation on each target.
		rep, err := codegen.Execute(plan, codegen.ExecOptions{
			Mode:      taskrt.Sim,
			Scheduler: "dmda",
			Args:      map[string]any{"V": codegen.SimVector{N: 1 << 22}},
			Pieces:    16,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulated makespan: %.6fs across %d busy unit(s)\n\n",
			rep.MakespanSeconds, rep.BusyUnits())
	}
	// One more: the paper's Listing 3/4 annotation example parsed and shown.
	a, err := pragma.Parse("#pragma cascabel execute Iscale : gpuset (V:BLOCK:N)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("annotation demo: interface=%s group=%s dist=%s\n",
		a.Execute.Interface, a.Execute.Group, a.Execute.Dists[0].Dist)
}
