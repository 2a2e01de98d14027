package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the example end to end. The frontend, the plan, the generated
// program and the compile plan are deterministic, so their lines are pinned;
// the real run's makespan, busy times and which workers took the eight tasks
// vary from run to run, so the report is checked by shape: one header line
// and worker lines whose tasks add up to eight. The last line says the result
// matched the serial program.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	pinned := []string{
		"task Ivecadd variant vecadd01, params: A:readwrite B:read",
		"platform xeon-cpu",
		"line 12: Ivecadd -> vecadd_x86(x86) vecadd01(x86) group=[host]",
		"generated 1872 bytes of output program; compile plan:",
		`# cascabel compile plan for platform "xeon-cpu"`,
		"gcc -O3 -fopenmp -c vecadd01.c vecadd_x86.c -o variants_x86.o   # units: host",
		"gcc variants_x86.o -ltaskrt -o program.xeon-cpu",
	}
	const verified = "verified: 1048576 elements match the serial program"
	if len(lines) < len(pinned)+3 {
		t.Fatalf("%d lines, want the %d pinned ones, a report of at least two and the verdict:\n%s", len(lines), len(pinned), out.String())
	}
	for i, want := range pinned {
		if lines[i] != want {
			t.Errorf("line %d = %q, want %q", i+1, lines[i], want)
		}
	}
	report, last := lines[len(pinned):len(lines)-1], lines[len(lines)-1]
	if last != verified {
		t.Errorf("last line = %q, want %q", last, verified)
	}
	header := regexp.MustCompile(`^mode=real sched=ws tasks=8 makespan=\d+\.\d{6}s( steals=\d+)?$`)
	if !header.MatchString(report[0]) {
		t.Errorf("report header %q does not match %s", report[0], header)
	}
	worker := regexp.MustCompile(`^  worker\d+ +x86  tasks=(\d+) +busy=\d+\.\d{6}s util=\d+%$`)
	tasks := 0
	for _, l := range report[1:] {
		m := worker.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("report line %q does not match %s", l, worker)
		}
		n, _ := strconv.Atoi(m[1])
		tasks += n
	}
	if tasks != 8 {
		t.Errorf("the worker lines account for %d tasks, want 8", tasks)
	}
}
