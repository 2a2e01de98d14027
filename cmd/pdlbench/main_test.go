package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestFig5Small(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig5", "-n", "1024", "-tile", "256"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 5", "single", "starpu", "starpu+2gpu"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

func TestOtherExperimentsSmall(t *testing.T) {
	for _, exp := range []string{"sched", "tiles", "bw", "crossover"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", exp, "-n", "1024", "-tile", "256"}, &out); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), "==") {
			t.Fatalf("%s produced no table", exp)
		}
	}
}

func TestRealCPUExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "realcpu", "-realn", "128"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Ext-E") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestFaultsExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "faults", "-n", "1024", "-tile", "256"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Ext-H", "gpu-loss", "cpu-only", "real-verify", "blacklisted [dev0 dev1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

// TestExperimentTable runs every experiment the table names at toy size.
func TestExperimentTable(t *testing.T) {
	for _, e := range experimentTable {
		var out bytes.Buffer
		args := []string{"-exp", e.name, "-n", "1024", "-tile", "256", "-realn", "128"}
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !strings.Contains(out.String(), "==") {
			t.Fatalf("%s produced no table:\n%s", e.name, out.String())
		}
	}
}

// TestExplicitSizesHonoured: faults and cluster have defaults of their own,
// which must give way to what the user typed even when that equals Figure 5's
// defaults.
func TestExplicitSizesHonoured(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "faults"}, "DGEMM 4096 "},
		{[]string{"-exp", "faults", "-n", "8192", "-tile", "1024"}, "DGEMM 8192 "},
		{[]string{"-exp", "cluster", "-n", "256", "-tile", "64"}, "n=256 tile=64"},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: missing %q:\n%s", tc.args, tc.want, out.String())
		}
	}
}

// TestUnknownExperiment: a name outside the table fails, including the ones
// this command took while it still recorded and compared measurements (that
// pipeline is benchmark/ now).
func TestUnknownExperiment(t *testing.T) {
	for _, name := range []string{"warp", "gemm", "check", "serve", "factor"} {
		err := run([]string{"-exp", name}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("-exp %s: err = %v, want unknown experiment", name, err)
		}
	}
}
