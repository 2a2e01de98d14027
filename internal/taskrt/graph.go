package taskrt

// Graph is a sealed task graph: the tasks and handles a Runtime had accepted
// when its Graph method was called, and the edges Submit derived between them.
// Run executes it any number of times, under any Config, and never writes it,
// so Sim runs of one Graph may proceed concurrently. Handle.Payload is the
// caller's data: real-mode kernels write through it and the cluster master may
// replace a payload that is not dense, so the caller serialises Real and
// cluster runs of one Graph and restores the payloads between them.
type Graph struct {
	tasks   []*Task   // by Task.ID()
	handles []*Handle // by Handle.ID()

	// The edges, in compressed sparse rows: task i waits on the ids
	// deps[depOff[i]:depOff[i+1]] (depOff holds one entry more than there are
	// tasks), and succ[succOff[i]:succOff[i+1]] wait on it — deps' transpose.
	deps, depOff  []int
	succ, succOff []int
}

// Tasks and Handles return the graph's tasks and handles in id order. The
// slices are the graph's: do not write to them.
func (g *Graph) Tasks() []*Task     { return g.tasks }
func (g *Graph) Handles() []*Handle { return g.handles }

// owns reports whether t is a task of g.
func (g *Graph) owns(t *Task) bool {
	return t.id < len(g.tasks) && g.tasks[t.id] == t
}

// Deps returns the ids of the tasks t waits for, in the order Submit derived
// them: its After list, then per access the handle's last writer and, for a
// write, the handle's readers since, each once. It is nil for a task not in g.
// The slice is a row of the graph's table: do not write to it.
func (g *Graph) Deps(t *Task) []int {
	if !g.owns(t) {
		return nil
	}
	return g.depsOf(t.id)
}

// Dependents returns the ids of the tasks waiting on t, ascending: the reverse
// edges of Deps. It is nil for a task not in g, and, like Deps, a row of the
// graph's table.
func (g *Graph) Dependents(t *Task) []int {
	if !g.owns(t) {
		return nil
	}
	return g.succOf(t.id)
}

// depsOf is task id's row of deps, clipped so that an append cannot reach the
// next row.
func (g *Graph) depsOf(id int) []int {
	lo, hi := g.depOff[id], g.depOff[id+1]
	return g.deps[lo:hi:hi]
}

// succOf is task id's row of succ.
func (g *Graph) succOf(id int) []int {
	lo, hi := g.succOff[id], g.succOff[id+1]
	return g.succ[lo:hi:hi]
}

// transpose builds succ from deps into new tables, so a Graph sealed before
// keeps its own, by one counting pass: count each task's dependents, turn the
// counts into row starts, then fill the rows visiting tasks in id order, so
// every row ascends.
func (g *Graph) transpose() {
	n := len(g.tasks)
	off := make([]int, n+1)
	for _, d := range g.deps {
		off[d+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	succ := make([]int, len(g.deps))
	for t := 0; t < n; t++ {
		for _, d := range g.depsOf(t) {
			succ[off[d]] = t
			off[d]++ // ends at the next row's start
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	g.succ, g.succOff = succ, off
}
