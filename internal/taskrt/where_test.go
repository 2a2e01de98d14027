package taskrt

import (
	"strings"
	"testing"

	"repro/internal/discover"
)

func TestWherePinsPlacement(t *testing.T) {
	// Pin all tasks to the GPUs even though an x86 impl exists and the
	// ws scheduler would otherwise deal most of them to the CPU cores.
	rt, err := New(Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim, Scheduler: "ws"})
	if err != nil {
		t.Fatal(err)
	}
	cl := dgemmCodelet(t)
	for i := 0; i < 12; i++ {
		h := rt.NewHandle("c", 1<<20, nil)
		if err := rt.Submit(&Task{
			Codelet:  cl,
			Accesses: []Access{W(h)},
			Flops:    1e9,
			Where:    []string{"dev0", "dev1"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.TasksOnArch("gpu"); got != 12 {
		t.Fatalf("gpu tasks = %d; want all 12", got)
	}
	if got := rep.TasksOnArch("x86"); got != 0 {
		t.Fatalf("x86 tasks = %d; want 0", got)
	}
}

func TestWhereMatchesExpandedInstances(t *testing.T) {
	// "host" must match the quantity-expanded host.0..host.7 instances.
	rt, err := New(Config{Platform: discover.MustPlatform("xeon-2gpu"), Mode: Sim, Scheduler: "ws"})
	if err != nil {
		t.Fatal(err)
	}
	cl := dgemmCodelet(t)
	for i := 0; i < 16; i++ {
		h := rt.NewHandle("c", 1<<20, nil)
		if err := rt.Submit(&Task{
			Codelet:  cl,
			Accesses: []Access{W(h)},
			Flops:    1e9,
			Where:    []string{"host"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksOnArch("gpu") != 0 {
		t.Fatal("group-pinned tasks leaked onto the GPUs")
	}
	if rep.BusyUnits() != 8 {
		t.Fatalf("busy units = %d; want all 8 host cores", rep.BusyUnits())
	}
}

func TestWhereUnsatisfiableFails(t *testing.T) {
	rt, err := New(Config{Platform: discover.MustPlatform("xeon-cpu"), Mode: Sim})
	if err != nil {
		t.Fatal(err)
	}
	cl := dgemmCodelet(t)
	_ = rt.Submit(&Task{Codelet: cl, Flops: 1, Where: []string{"dev0"}})
	if _, err := rt.Run(); err == nil || !strings.Contains(err.Error(), "no unit can run") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnitAllowedPrefixSemantics(t *testing.T) {
	cases := []struct {
		id    string
		where []string
		want  bool
	}{
		{"host.3", []string{"host"}, true},
		{"host", []string{"host"}, true},
		{"hostile", []string{"host"}, false},
		{"dev0", []string{"host", "dev0"}, true},
		{"dev0.1", []string{"dev0"}, true},
		{"dev1", []string{"dev0"}, false},
	}
	for _, c := range cases {
		if got := unitAllowed(c.id, c.where); got != c.want {
			t.Errorf("unitAllowed(%q, %v) = %v; want %v", c.id, c.where, got, c.want)
		}
	}
}
