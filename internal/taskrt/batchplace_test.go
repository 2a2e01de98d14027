package taskrt

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/placement"
)

// placed is one placement as a dmda dispatcher's onPlace hook sees it.
type placed struct {
	w int
	t *Task
	c placement.Candidate
}

// TestDmdaBatchPlacesLikeSequentialPushes holds pushBatch to what a
// sequence of single pushes from the same goroutine decides: twin
// dispatchers start from the same backlogs, histories, offline flags,
// residency and cursor; one places a batch, the other pushes the batch's
// tasks one by one in the batch's priority order. Every task must go to the
// same worker with the same estimate and candidate, every queue must hold
// the same tasks in the same order, and the backlogs, residency, cursor and
// credits must end equal. The batch is wide enough that a worker's share is
// published in more than one piece.
func TestDmdaBatchPlacesLikeSequentialPushes(t *testing.T) {
	cl, err := NewCodelet("twin", Impl{Arch: "fast"}, Impl{Arch: "slow"}, Impl{Arch: "x86"})
	if err != nil {
		t.Fatal(err)
	}
	warm := perfmodel.NewStore()
	for _, sz := range []float64{1e6, 2e6, 4e6} {
		for arch, scale := range map[string]float64{"fast": 1, "slow": 3, "x86": 2} {
			if err := warm.Model("twin", arch).Record(sz, sz/1e12*scale); err != nil {
				t.Fatal(err)
			}
		}
	}
	link := placement.Link{LatNanos: 2e3, NanosPerByte: 0.005} // ≈ 7 µs a 1 MiB operand: a few tasks' worth
	oneNode := [][]placement.Link{{{}}}
	twoNodes := [][]placement.Link{{{}, link}, {link, {}}}

	cases := []struct {
		name    string
		archs   []string
		nodes   []int
		links   [][]placement.Link
		models  *perfmodel.Store
		offline int // a worker blacklisted before the batch, or -1
		handles int // operands the tasks read, 1 MiB each, on node 0 unless preset
	}{
		{"warm models", []string{"fast", "slow", "fast"}, []int{0, 0, 0}, oneNode, warm, -1, 0},
		{"no models", []string{"x86", "x86", "x86"}, []int{0, 0, 0}, oneNode, nil, -1, 0},
		{"one offline worker", []string{"fast", "slow", "fast"}, []int{0, 0, 0}, oneNode, warm, 2, 0},
		{"two-node data-aware", []string{"x86", "x86", "x86"}, []int{0, 0, 1}, twoNodes, warm, -1, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			handles := make([]*Handle, tc.handles)
			for i := range handles {
				handles[i] = &Handle{Name: "h", Bytes: 1 << 20, id: i}
			}
			var tasks []*Task
			for i := 0; i < 4*dmdaShare; i++ {
				task := &Task{Codelet: cl, Priority: []int{0, 2, 0, 1}[i%4], Flops: float64(1+i%3) * 1e6}
				if i%5 == 4 {
					task.Flops = 0 // no model answer: priced by history
				}
				if len(handles) > 0 {
					task.Accesses = []Access{R(handles[i%len(handles)])}
				}
				tasks = append(tasks, task)
			}
			numbered(tasks)

			twin := func() (*dmdaDispatcher, *[]placed) {
				d := newDmdaDispatcher(tc.archs, tc.nodes, tc.links, tasks, handles, tc.models)
				for w := range d.workers {
					wk := &d.workers[w]
					wk.outstanding.Store(int64(w) * 1500)
					if w > 0 { // worker 0 is cold: its estimate is the pool's
						wk.busyNanos.Store(int64(w*w) * 3000)
						wk.completed.Store(int64(w) * 2)
					}
				}
				if tc.offline >= 0 {
					d.setOffline(tc.offline, true)
				}
				if len(handles) > 1 {
					d.resident[1].Store(1 << 1) // one operand starts on node 1
				}
				d.rr.Store(7)
				var log []placed
				d.onPlace = func(w int, t *Task, c placement.Candidate) { log = append(log, placed{w, t, c}) }
				return d, &log
			}
			batched, batchLog := twin()
			single, singleLog := twin()

			batch := slices.Clone(tasks)
			batched.pushBatch(1, batch)
			order := slices.Clone(tasks)
			slices.SortStableFunc(order, func(a, b *Task) int { return cmp.Compare(b.Priority, a.Priority) })
			for _, task := range order {
				single.push(1, task)
			}

			if len(*batchLog) != len(tasks) || len(*singleLog) != len(tasks) {
				t.Fatalf("placements logged: batch %d, single %d, want %d each", len(*batchLog), len(*singleLog), len(tasks))
			}
			for i, p := range *batchLog {
				if q := (*singleLog)[i]; p != q {
					t.Fatalf("placement %d: batch put task %d on worker %d with %+v, single pushes task %d on %d with %+v",
						i, p.t.id, p.w, p.c, q.t.id, q.w, q.c)
				}
			}
			for _, task := range tasks {
				if batched.est[task.id] != single.est[task.id] {
					t.Errorf("task %d: est %d after the batch, %d after single pushes", task.id, batched.est[task.id], single.est[task.id])
				}
			}
			used, widest := 0, 0
			for w := range batched.workers {
				bq, sq := drain(batched.workers[w].q), drain(single.workers[w].q)
				if !slices.Equal(bq, sq) {
					t.Errorf("worker %d queue: batch %v, single pushes %v", w, ids(bq), ids(sq))
				}
				if len(bq) > 0 {
					used++
				}
				widest = max(widest, len(bq))
				if w == tc.offline && len(bq) > 0 {
					t.Errorf("offline worker %d was given %d tasks", w, len(bq))
				}
				charged := int64(w) * 1500 // the preset backlog
				for _, task := range bq {
					charged += batched.est[task.id]
				}
				if b, s := batched.workers[w].outstanding.Load(), single.workers[w].outstanding.Load(); b != s || b != charged {
					t.Errorf("worker %d outstanding: batch %d, single pushes %d, want %d (preset + its tasks' est)", w, b, s, charged)
				}
			}
			if used < 2 {
				t.Errorf("the batch went to %d worker(s): the case cannot tell placements apart", used)
			}
			if widest <= dmdaShare {
				t.Errorf("no worker's share (at most %d) crossed a publish every %d tasks", widest, dmdaShare)
			}
			for h := range handles {
				if b, s := batched.resident[h].Load(), single.resident[h].Load(); b != s {
					t.Errorf("handle %d resident on %b after the batch, %b after single pushes", h, b, s)
				}
			}
			if b, s := batched.rr.Load(), single.rr.Load(); b != s || b != 7+uint64(len(tasks)) {
				t.Errorf("cursor: batch %d, single pushes %d, want %d", b, s, 7+len(tasks))
			}
			if b, s := batched.sem.credits.Load(), single.sem.credits.Load(); b != s || b != int64(len(tasks)) {
				t.Errorf("credits: batch %d, single pushes %d, want %d", b, s, len(tasks))
			}
			// The cold worker's bid is the pool's mean over the snapshot:
			// 1500 ns a task on worker 1, 3000 on worker 2.
			for _, p := range *batchLog {
				if p.c.Source == placement.Cold && p.c.Exec != (3000+12000)/(2+4) {
					t.Errorf("task %d: cold estimate %d ns, want the pool mean 2500", p.t.id, p.c.Exec)
				}
			}
			if len(handles) > 0 && !prefetchPaidInBatch(*batchLog, tc.nodes) {
				t.Error("no task found an operand resident where an earlier task of the batch had moved it")
			}
		})
	}
}

// prefetchPaidInBatch reports whether some placement read an operand free
// on a node that only an earlier placement of the same log had made it
// resident on — residency set inside the batch changing a later decision.
func prefetchPaidInBatch(log []placed, nodes []int) bool {
	moved := map[[2]int]bool{} // (handle, node) prefetched by an earlier placement
	for _, p := range log {
		h, node := p.t.Accesses[0].Handle.id, nodes[p.w]
		if p.c.Xfer == 0 && moved[[2]int{h, node}] {
			return true
		}
		if p.c.Xfer > 0 {
			moved[[2]int{h, node}] = true
		}
	}
	return false
}

// drain empties q oldest first.
func drain(q *wsDeque) []*Task {
	var out []*Task
	for t := q.steal(); t != nil; t = q.steal() {
		out = append(out, t)
	}
	return out
}

func ids(ts []*Task) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.id
	}
	return out
}
