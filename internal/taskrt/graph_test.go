package taskrt

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// modeOn returns how task t accesses handle h, if it does.
func modeOn(t *Task, h *Handle) (AccessMode, bool) {
	for _, a := range t.Accesses {
		if a.Handle == h {
			return a.Mode, true
		}
	}
	return 0, false
}

// naiveDeps derives the dependencies of accepted[i] by looking back over every
// accepted submission before it — O(n²), the definition the runtime's tables
// must agree with. The order is the task's After list, then per access the
// handle's last writer and, for a write, the handle's readers since that
// write, oldest first; a task appears once, where it first occurs.
func naiveDeps(accepted []*Task, i int) []int {
	var out []int
	add := func(d int) {
		if d >= 0 && !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	t := accepted[i]
	for _, d := range t.After {
		add(d.id)
	}
	for _, a := range t.Accesses {
		lastW := -1
		for j := i - 1; j >= 0; j-- {
			if m, ok := modeOn(accepted[j], a.Handle); ok && m.Writes() {
				lastW = j
				break
			}
		}
		add(lastW)
		if a.Mode.Writes() {
			for j := lastW + 1; j < i; j++ {
				if _, ok := modeOn(accepted[j], a.Handle); ok {
					add(j)
				}
			}
		}
	}
	return out
}

// randomTask accesses one to three distinct handles of hs, reads twice as
// often as it writes or updates, and may wait explicitly on up to two tasks
// of before.
func randomTask(rng *rand.Rand, cl *Codelet, hs []*Handle, before []*Task) *Task {
	t := &Task{Codelet: cl}
	for _, i := range rng.Perm(len(hs))[:1+rng.Intn(min(3, len(hs)))] {
		mode := [...]AccessMode{Read, Read, Write, ReadWrite}[rng.Intn(4)]
		t.Accesses = append(t.Accesses, Access{Handle: hs[i], Mode: mode})
	}
	for k := rng.Intn(3); k > 0 && len(before) > 0; k-- {
		t.After = append(t.After, before[rng.Intn(len(before))])
	}
	return t
}

// spoil turns a valid task into one Submit must reject after it has checked
// some of the task already: its accesses and After list are valid up to the
// last entry.
func spoil(rng *rand.Rand, t *Task, accepted []*Task, foreign *Handle) *Task {
	switch rng.Intn(4) {
	case 0:
		t.Accesses = append(t.Accesses, R(foreign))
	case 1:
		t.Accesses = append(t.Accesses, W(t.Accesses[0].Handle))
	case 2:
		t.After = append(t.After, &Task{Codelet: t.Codelet})
	default:
		if len(accepted) == 0 {
			t.Codelet = nil
			break
		}
		return accepted[rng.Intn(len(accepted))] // submitted twice
	}
	return t
}

// TestQuickGraphTablesMatchNaive: over random access sequences — reads,
// writes and updates on a few handles, so readers pile up between writes;
// explicit After edges; batches that fail part-way — the runtime's tables are
// the graph. After every batch, each accepted task's Deps is naiveDeps in its
// order, Dependents is the exact transpose in id order, and the rejected task
// and the rest of its batch left no row behind.
func TestQuickGraphTablesMatchNaive(t *testing.T) {
	cl := noopCodelet(t, "n")
	failures := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt, err := New(Config{Platform: cpuPlatform(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		other, err := New(Config{Platform: cpuPlatform(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		foreign := other.NewHandle("foreign", 8, nil)
		hs := make([]*Handle, 2+rng.Intn(4))
		for i := range hs {
			hs[i] = rt.NewHandle(fmt.Sprintf("h%d", i), 8, nil)
		}
		var accepted []*Task
		for b := 0; b < 12; b++ {
			batch := make([]*Task, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = randomTask(rng, cl, hs, append(accepted[:len(accepted):len(accepted)], batch[:i]...))
			}
			bad := -1
			if rng.Intn(3) == 0 {
				bad = rng.Intn(len(batch))
				batch[bad] = spoil(rng, batch[bad], accepted, foreign)
			}
			err := rt.SubmitBatch(batch)
			switch {
			case bad < 0 && err != nil:
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			case bad >= 0 && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("batch task %d:", bad))):
				t.Fatalf("seed %d batch %d: task %d is invalid, SubmitBatch = %v", seed, b, bad, err)
			case bad >= 0:
				failures++
				batch = batch[:bad]
			}
			accepted = append(accepted, batch...)
			checkTables(t, fmt.Sprintf("seed %d batch %d", seed, b), rt, accepted)
		}
	}
	if failures < 100 {
		t.Fatalf("%d batches failed part-way, want at least 100", failures)
	}
}

// checkTables compares rt's edges with the naive derivation over accepted.
func checkTables(t *testing.T, at string, rt *Runtime, accepted []*Task) {
	t.Helper()
	if rt.Tasks() != len(accepted) || len(rt.depOff) != len(accepted)+1 {
		t.Fatalf("%s: %d tasks and %d row offsets for %d accepted submissions", at, rt.Tasks(), len(rt.depOff), len(accepted))
	}
	dependents := make([][]int, len(accepted))
	for i, task := range accepted {
		if task.ID() != i {
			t.Fatalf("%s: accepted task %d has id %d", at, i, task.ID())
		}
		want := naiveDeps(accepted, i)
		if got := rt.Deps(task); !slices.Equal(got, want) {
			t.Fatalf("%s: task %d: Deps %v, the naive derivation %v", at, i, got, want)
		}
		for _, d := range want {
			dependents[d] = append(dependents[d], i)
		}
	}
	for i, task := range accepted {
		if got := rt.Dependents(task); !slices.Equal(got, dependents[i]) {
			t.Fatalf("%s: task %d: Dependents %v, the transpose %v", at, i, got, dependents[i])
		}
	}
}

// A Task holds what its submitter wrote plus its id; what the runtime derives
// and what a run changes live in tables by id. 120 bytes is those fields.
func TestTaskSize(t *testing.T) {
	if size := unsafe.Sizeof(Task{}); size > 120 {
		t.Errorf("Task is %d bytes, want at most 120", size)
	}
}
