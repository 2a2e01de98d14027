// Vecadd runs the paper's annotation example (Listings 3/4) through the
// complete Cascabel pipeline: parse the annotated serial program, register
// its task variants, pre-select against a PDL platform, generate the output
// program, and execute the translated task graph for real on this machine —
// verifying it computes exactly what the serial input program computes.
//
// Run with:
//
//	go run ./examples/vecadd
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/codegen"
	"repro/internal/csrc"
	"repro/internal/discover"
	"repro/internal/mapping"
	"repro/internal/repo"
	"repro/internal/taskrt"
)

// program is the paper's example: a vecadd task definition with access
// specifiers, and an annotated call site with BLOCK distributions.
const program = `
#pragma cascabel task : x86
    : Ivecadd
    : vecadd01
    : ( A: readwrite,
        B : read )
void vector_add(double *A, double *B) {
    /* for (i = 0; i < N; i++) A[i] += B[i]; */
}

int main() {
    #pragma cascabel execute Ivecadd
        : cpuset
        (A:BLOCK:N,
         B:BLOCK:N)
    vector_add( A, B );
    return 0;
}
`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, its narrative written to w.
func run(w io.Writer) error {
	// Frontend: parse annotations + C subset.
	prog, err := csrc.ParseProgram(program)
	if err != nil {
		return err
	}
	td := prog.TaskDefs()[0]
	fmt.Fprintf(w, "task %s variant %s, params:", td.Annotation.Interface, td.Annotation.Name)
	for _, p := range td.Annotation.Params {
		fmt.Fprintf(w, " %s:%s", p.Name, p.Mode)
	}
	fmt.Fprintln(w)

	// Task registration (paper IV-C step 1).
	repository := repo.NewWithLibrary()
	if err := repository.RegisterProgram(prog, repo.DefaultKernels()); err != nil {
		return err
	}

	// Static pre-selection against the target PDL (step 2).
	platform := discover.MustPlatform("xeon-cpu")
	plan, err := mapping.PlanProgram(prog, repository, platform)
	if err != nil {
		return err
	}
	fmt.Fprint(w, plan.Summary())

	// Output generation (step 3): the generated Go program.
	src, err := codegen.GenerateGo(plan, codegen.GenOptions{PlatformFile: "xeon-cpu.pdl.xml"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated %d bytes of output program; compile plan:\n%s",
		len(src), codegen.CompilePlan(plan))

	// Execution: run the translated task graph for real on this host.
	const n = 1 << 20
	a := make(codegen.Vector, n)
	b := make(codegen.Vector, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = 2 * float64(i)
	}
	report, err := codegen.Execute(plan, codegen.ExecOptions{
		Mode: taskrt.Real,
		Args: map[string]any{"A": a, "B": b},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.String())

	// Verify against the serial semantics A[i] += B[i].
	for i := 0; i < n; i++ {
		if a[i] != 3*float64(i) {
			return fmt.Errorf("verification failed at %d: %g", i, a[i])
		}
	}
	fmt.Fprintf(w, "verified: %d elements match the serial program\n", n)
	return nil
}
