package trace

import "sort"

// CriticalPath is the longest dependency chain through the recorded task
// DAG, weighted by execution time: the lower bound on makespan no amount of
// added parallelism can beat. Comparing Length to the trace makespan tells
// how much of a run was serialised on the chain versus lost to scheduling,
// transfers and contention.
type CriticalPath struct {
	// Length is the summed execution time (seconds) of the tasks on the
	// path.
	Length float64
	// TaskIDs are the task ids along the path, in dependency order.
	TaskIDs []int
	// Events are the corresponding Task events, in the same order.
	Events []Event
}

// CriticalPath extracts the critical path from the recorded Task events,
// following each event's ParentIDs. When a task was retried, the successful
// execution (the latest Task event for its id) is used; failed attempts
// (Failure events) never appear on the path. Tasks whose parents were not
// traced are treated as roots.
func (t *Trace) CriticalPath() CriticalPath {
	byID := latestTasks(t.snapshot())
	if len(byID) == 0 {
		return CriticalPath{}
	}

	// Longest path by memoised DFS over the parent edges. A visiting guard
	// breaks cycles defensively (well-formed traces are acyclic: a parent is
	// always submitted before its dependents).
	length := map[int]float64{}
	via := map[int]int{}
	const visiting = -2.0
	var chain func(id int) float64
	chain = func(id int) float64 {
		if l, ok := length[id]; ok {
			if l == visiting {
				return 0
			}
			return l
		}
		e := byID[id]
		length[id] = visiting
		best, bestVia := 0.0, NoTask
		for _, p := range e.ParentIDs {
			if _, ok := byID[p]; !ok {
				continue
			}
			if l := chain(p); l > best || bestVia == NoTask {
				best, bestVia = l, p
			}
		}
		l := e.Duration() + best
		length[id] = l
		via[id] = bestVia
		return l
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	tail, tailLen := ids[0], -1.0
	for _, id := range ids {
		if l := chain(id); l > tailLen {
			tail, tailLen = id, l
		}
	}

	// Reconstruct tail → root, then reverse into dependency order. The seen
	// guard terminates reconstruction if a cycle survived into the via map.
	var path []int
	seen := map[int]bool{}
	for id := tail; id != NoTask && !seen[id]; id = via[id] {
		seen[id] = true
		path = append(path, id)
	}
	cp := CriticalPath{Length: tailLen}
	for i := len(path) - 1; i >= 0; i-- {
		cp.TaskIDs = append(cp.TaskIDs, path[i])
		cp.Events = append(cp.Events, byID[path[i]])
	}
	return cp
}

// latestTasks indexes the Task events by task id, keeping for a retried task
// its latest (the successful) execution.
func latestTasks(events []Event) map[int]Event {
	byID := map[int]Event{}
	for _, e := range events {
		if e.Kind != Task || e.TaskID < 0 {
			continue
		}
		if prev, ok := byID[e.TaskID]; !ok || e.End > prev.End {
			byID[e.TaskID] = e
		}
	}
	return byID
}
