package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRun runs the example at a small size with a trace. Figure 5 is
// simulated in virtual time, so its table is pinned (each line without the
// trailing spaces of its padded last column); the real-mode cross-check's
// makespan varies from run to run, so its line and the trace line are checked
// by shape, and the trace file must exist.
func TestRun(t *testing.T) {
	traceTo := filepath.Join(t.TempDir(), "gemm.json")
	var out strings.Builder
	if err := run(&out, []string{"-n", "2048", "-tile", "512", "-trace", traceTo}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	pinned := []string{
		"== Figure 5: DGEMM 2048x2048 speedup vs single-threaded input (tile 512, sched dmda) ==",
		"series       platform    makespan[s]  speedup  gpu-tasks  transfers[MB]",
		"-----------  ----------  -----------  -------  ---------  -------------",
		"single       xeon-1core  1.7551       1.00     0          0.00",
		"starpu       xeon-cpu    0.2194       8.00     0          0.00",
		"starpu+2gpu  xeon-2gpu   0.0943       18.62    47         140.00",
		"note: paper shape: starpu+2gpu > starpu > single = 1.0; absolute factors depend on calibration (see EXPERIMENTS.md)",
		"",
	}
	if len(lines) != len(pinned)+2 {
		t.Fatalf("%d lines, want the %d pinned ones, the cross-check and the trace line:\n%s", len(lines), len(pinned), out.String())
	}
	for i, want := range pinned {
		if got := strings.TrimRight(lines[i], " "); got != want {
			t.Errorf("line %d = %q, want %q", i+1, got, want)
		}
	}
	check := regexp.MustCompile(`^real-mode cross-check \(N=256\): 64 tasks in \d+\.\d{4}s, result verified$`)
	if l := lines[len(pinned)]; !check.MatchString(l) {
		t.Errorf("cross-check line %q does not match %s", l, check)
	}
	wrote := regexp.MustCompile(`^wrote ` + regexp.QuoteMeta(traceTo) + ` \(\d+ events; load in https://ui\.perfetto\.dev\)$`)
	if l := lines[len(pinned)+1]; !wrote.MatchString(l) {
		t.Errorf("trace line %q does not match %s", l, wrote)
	}
	if fi, err := os.Stat(traceTo); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}

// TestRunRejectsUnknownScheduler: a scheduler the engines do not run is an
// error from Figure 5, returned rather than fatal.
func TestRunRejectsUnknownScheduler(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-n", "2048", "-tile", "512", "-sched", "heft"}); err == nil {
		t.Fatalf("-sched heft accepted:\n%s", out.String())
	}
}
