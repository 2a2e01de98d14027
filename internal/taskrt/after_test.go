package taskrt

import (
	"math"
	"strings"
	"testing"

	"repro/internal/discover"
)

func TestExplicitDependenciesSerialise(t *testing.T) {
	// Two tasks with no shared data would run in parallel on 8 cores;
	// an explicit After dependency forces them back to back.
	run := func(explicit bool) float64 {
		rt, err := New(Config{Platform: discover.MustPlatform("xeon-cpu"), Mode: Sim})
		if err != nil {
			t.Fatal(err)
		}
		cl := dgemmCodelet(t)
		t1 := &Task{Codelet: cl, Flops: 2e9}
		t2 := &Task{Codelet: cl, Flops: 2e9}
		if explicit {
			t2.After = []*Task{t1}
		}
		if err := rt.Submit(t1); err != nil {
			t.Fatal(err)
		}
		if err := rt.Submit(t2); err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.MakespanSeconds
	}
	parallel := run(false)
	serial := run(true)
	if math.Abs(serial-2*parallel)/serial > 0.01 {
		t.Fatalf("explicit dep: serial %g, parallel %g; want 2x", serial, parallel)
	}
}

func TestExplicitDependencyMixesWithDataDeps(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	mk := func(name string) *Codelet {
		cl, err := NewCodelet(name, Impl{Arch: "x86", Func: func(tc *TaskContext) error {
			order = append(order, tc.Task.Label) // workers=1 keeps this safe
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	rt.cfg.Workers = 1
	h := rt.NewHandle("h", 8, nil)
	a := &Task{Codelet: mk("a"), Accesses: []Access{W(h)}, Label: "a"}
	b := &Task{Codelet: mk("b"), Label: "b", After: []*Task{a}}
	c := &Task{Codelet: mk("c"), Accesses: []Access{R(h)}, Label: "c", After: []*Task{b}}
	for _, task := range []*Task{a, b, c} {
		if err := rt.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(rt.Graph().Deps(c)); got != 2 {
		t.Fatalf("c deps = %d; want data dep on a plus explicit dep on b", got)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestExplicitDependencyValidation(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cl := noopCodelet(t, "n")
	if err := rt.Submit(&Task{Codelet: cl, After: []*Task{nil}}); err == nil {
		t.Fatal("nil explicit dependency must fail")
	}
	ghost := &Task{Codelet: cl}
	err = rt.Submit(&Task{Codelet: cl, After: []*Task{ghost}})
	if err == nil || !strings.Contains(err.Error(), "not yet submitted") {
		t.Fatalf("err = %v", err)
	}
	// A task of another runtime is not a dependency either, even where its id
	// names a task of this one.
	other, err := New(Config{Platform: cpuPlatform(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	foreign, own := &Task{Codelet: cl}, &Task{Codelet: cl}
	if err := other.Submit(foreign); err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(own); err != nil {
		t.Fatal(err)
	}
	if foreign.ID() != own.ID() {
		t.Fatalf("ids %d and %d: rejected submissions must not consume ids", foreign.ID(), own.ID())
	}
	err = rt.Submit(&Task{Codelet: cl, After: []*Task{foreign}})
	if err == nil || !strings.Contains(err.Error(), "not yet submitted") {
		t.Fatalf("dependency on another runtime's task: err = %v", err)
	}
	if err := rt.Submit(own); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("second submission of one task: err = %v", err)
	}
	if n := len(other.Graph().Dependents(foreign)); n != 0 || rt.Tasks() != 1 {
		t.Fatalf("rejected submissions left %d dependents on the foreign task and %d tasks registered", n, rt.Tasks())
	}
}

// TestSubmitRejectsForeignHandle: engine state is indexed by handle id, so a
// handle registered with another runtime must be refused at Submit rather
// than read someone else's row at Run.
func TestSubmitRejectsForeignHandle(t *testing.T) {
	rt, err := New(Config{Platform: cpuPlatform(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{Platform: cpuPlatform(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cl := noopCodelet(t, "n")
	own := rt.NewHandle("own", 8, nil)
	foreign := other.NewHandle("foreign", 8, nil) // same id as own
	far := other.NewHandle("far", 8, nil)         // an id rt never issued
	for _, h := range []*Handle{foreign, far} {
		err := rt.Submit(&Task{Codelet: cl, Accesses: []Access{R(own), W(h)}})
		if err == nil || !strings.Contains(err.Error(), "not registered with this runtime") {
			t.Fatalf("handle %q: err = %v", h.Name, err)
		}
	}
	if rt.Tasks() != 0 {
		t.Fatalf("%d tasks registered by rejected submissions", rt.Tasks())
	}
	if err := rt.Submit(&Task{Codelet: cl, Accesses: []Access{RW(own)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
