package placement

import (
	"testing"

	"repro/internal/core"
)

func TestEstimateChain(t *testing.T) {
	own, pool := History{Nanos: 900, Count: 3}, History{Nanos: 5000, Count: 10}
	cases := []struct {
		name      string
		model     int64
		ok        bool
		own, pool History
		want      int64
		src       Source
		label     string
	}{
		{"model wins over any history", 42, true, own, pool, 42, Model, "model"},
		{"a zero model estimate is still the model's", 0, true, own, pool, 0, Model, "model"},
		{"own mean when the model has no answer", 42, false, own, pool, 300, Fallback, "fallback"},
		{"pool mean while the candidate is cold", 0, false, History{}, pool, 500, Cold, "cold"},
		{"nothing observed anywhere", 0, false, History{}, History{}, 0, Cold, "cold"},
	}
	for _, c := range cases {
		got, src := Estimate(c.model, c.ok, c.own, c.pool)
		if got != c.want || src != c.src || src.String() != c.label {
			t.Errorf("%s: Estimate = %d, %v; want %d, %s", c.name, got, src, c.want, c.label)
		}
	}
}

func TestChargeAndFinish(t *testing.T) {
	const backlog = 100
	cases := []struct {
		name           string
		c              Candidate
		charge, finish int64
	}{
		{"plain sum", Candidate{Exec: 40, Xfer: 7}, 47, 147},
		{"slowdown scales exec only", Candidate{Exec: 40, Slowdown: 2.5, Xfer: 7}, 107, 207},
		{"slowdown below 1 floors to 1", Candidate{Exec: 40, Slowdown: 0.25, Xfer: 7}, 47, 147},
		{"nothing known", Candidate{}, 0, 100},
	}
	for _, c := range cases {
		if c.c.Charge() != c.charge || c.c.Finish(backlog) != c.finish {
			t.Errorf("%s: Charge %d Finish %d; want %d, %d", c.name, c.c.Charge(), c.c.Finish(backlog), c.charge, c.finish)
		}
		// The invariant the engines rely on: adding Charge at placement
		// brings the backlog to Finish, subtracting it at release brings it
		// back.
		placed := backlog + c.c.Charge()
		if placed != c.c.Finish(backlog) || placed-c.c.Charge() != backlog {
			t.Errorf("%s: backlog %d -> %d -> %d", c.name, backlog, placed, placed-c.c.Charge())
		}
	}
}

func TestStealPays(t *testing.T) {
	thief := Candidate{Exec: 50, Xfer: 5}
	for _, c := range []struct {
		victimBacklog int64
		want          bool
	}{{66, true}, {65, false}, {0, false}} {
		if got := StealPays(thief, 10, c.victimBacklog); got != c.want {
			t.Errorf("thief finishing at 65 against victim backlog %d: StealPays = %v", c.victimBacklog, got)
		}
	}
}

// offered is one candidate as the tests offer it: a bid behind a backlog.
type offered struct {
	backlog int64
	c       Candidate
}

func TestPick(t *testing.T) {
	// pick offers cands in At order, as the engines do.
	pick := func(cursor uint64, prioritised bool, cands ...offered) (int, bool) {
		p := NewPick(len(cands), cursor, prioritised)
		visited := map[int]bool{}
		for k := range cands {
			i := p.At(k)
			visited[i] = true
			p.Offer(i, cands[i].backlog, cands[i].c)
		}
		if len(visited) != len(cands) {
			t.Errorf("At visited %d of %d candidates from cursor %d", len(visited), len(cands), cursor)
		}
		i, best, ok := p.Best()
		if ok && best != cands[i].c {
			t.Errorf("Best returned candidate %+v for index %d, offered %+v", best, i, cands[i].c)
		}
		return i, ok
	}

	if i, _ := pick(0, false, offered{9, Candidate{}}, offered{3, Candidate{Exec: 5}}, offered{2, Candidate{Exec: 5, Xfer: 2}}); i != 1 {
		t.Errorf("smallest finish: picked %d, want 1", i)
	}
	for cursor := uint64(0); cursor < 2; cursor++ {
		if i, _ := pick(cursor, false, offered{0, Candidate{Exec: 10, Slowdown: 3}}, offered{0, Candidate{Exec: 10, Xfer: 15}}); i != 1 {
			t.Errorf("slowed candidate (finish 30) beat a healthy one (finish 25): picked %d", i)
		}
	}

	// A complete tie goes to the cursor's position, so a caller advancing
	// the cursor visits every candidate.
	tied := make([]offered, 5)
	seen := map[int]bool{}
	for cursor := uint64(0); cursor < 10; cursor++ {
		i, _ := pick(cursor, false, tied...)
		if want := int(cursor % 5); i != want {
			t.Errorf("tie with cursor %d: picked %d, want %d", cursor, i, want)
		}
		seen[i] = true
	}
	if len(seen) != len(tied) {
		t.Errorf("rotation reached %d of %d tied candidates", len(seen), len(tied))
	}
	// With the cursor's own candidate not offered, the next one after it
	// wins, wrapping around.
	p := NewPick(4, 3, false)
	for k := 0; k < 4; k++ {
		if i := p.At(k); i != 3 {
			p.Offer(i, 0, Candidate{})
		}
	}
	if i, _, _ := p.Best(); i != 0 {
		t.Errorf("tie from cursor 3 over {0,1,2}: picked %d, want 0", i)
	}

	// Same finish, different exec: a prioritised task takes the faster
	// candidate from every cursor; an unprioritised one keeps rotating.
	fast, slow := offered{20, Candidate{Exec: 10}}, offered{0, Candidate{Exec: 30}}
	for cursor := uint64(0); cursor < 4; cursor++ {
		if i, _ := pick(cursor, true, slow, fast); i != 1 {
			t.Errorf("prioritised tie, cursor %d: picked the slower exec", cursor)
		}
		if i, _ := pick(cursor, false, slow, fast); i != int(cursor%2) {
			t.Errorf("unprioritised tie, cursor %d: picked %d, want the rotation's %d", cursor, i, cursor%2)
		}
	}
	// Priority breaks ties only: it never overrides a smaller finish.
	for cursor := uint64(0); cursor < 2; cursor++ {
		if i, _ := pick(cursor, true, offered{0, Candidate{Exec: 29}}, fast); i != 0 {
			t.Errorf("prioritised task went to the faster exec at a later finish")
		}
	}

	none := NewPick(3, 7, true)
	if i, _, ok := none.Best(); ok || i >= 0 {
		t.Errorf("nothing offered: Best = %d, ok=%v", i, ok)
	}
}

func TestPickDoesNotAllocate(t *testing.T) {
	var cands [64]offered
	for i := range cands {
		cands[i] = offered{int64(64 - i), Candidate{Slowdown: float64(i%3) + 0.5, Xfer: int64(i % 5)}}
	}
	cursor, sink := uint64(0), 0
	allocs := testing.AllocsPerRun(100, func() {
		p := NewPick(len(cands), cursor, cursor%2 == 0)
		cursor++
		for k := range cands {
			i := p.At(k)
			c := &cands[i]
			own := History{Nanos: int64(i), Count: int64(i % 2)}
			c.c.Exec, c.c.Source = Estimate(int64(i), i%4 == 0, own, History{Nanos: 10, Count: 1})
			p.Offer(i, c.backlog, c.c)
		}
		i, c, _ := p.Best()
		sink += i + len(c.Source.String())
	})
	if allocs != 0 {
		t.Fatalf("a 64-candidate pick allocates %.1f objects, want 0", allocs)
	}
}

func TestLinkNanos(t *testing.T) {
	l := Link{LatNanos: 100, NanosPerByte: 0.5}
	if got := l.Nanos(1000); got != 600 {
		t.Errorf("Nanos(1000) = %d, want 600", got)
	}
	if bus := Bus(); bus.LatNanos != 1e4 || bus.Nanos(5<<30) != 1e9+1e4 {
		t.Errorf("Bus() = %+v: want 10 µs latency and 5 GiB in one second", bus)
	}
}

func TestRouteLink(t *testing.T) {
	// a —(1 GB/s, 100 µs)— b —(2 GB/s, 50 µs)— c —(latency only)— d, e apart.
	pl, err := core.NewBuilder("route").
		Master("a", core.Arch("x86")).
		Master("b", core.Arch("x86")).
		Master("c", core.Arch("x86")).
		Master("d", core.Arch("x86")).
		Master("e", core.Arch("x86")).
		Link(core.ICTypePCIe, "a", "b", core.Bandwidth(1), core.Latency(100)).
		Link(core.ICTypePCIe, "b", "c", core.Bandwidth(2), core.Latency(50)).
		Link(core.ICTypePCIe, "c", "d", core.Latency(20)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	def := Link{LatNanos: 7e3, NanosPerByte: 4}
	perByte := func(gbs float64) float64 { return 1e9 / (gbs * (1 << 30)) }
	cases := []struct {
		name     string
		pl       *core.Platform
		from, to string
		want     Link
		ok       bool
	}{
		{"one hop", pl, "a", "b", Link{LatNanos: 100e3, NanosPerByte: perByte(1)}, true},
		{"two declared hops sum", pl, "a", "c", Link{LatNanos: 150e3, NanosPerByte: perByte(1) + perByte(2)}, true},
		{"duplex route, reversed", pl, "c", "a", Link{LatNanos: 150e3, NanosPerByte: perByte(2) + perByte(1)}, true},
		{"missing bandwidth takes the default for that hop only", pl, "b", "d", Link{LatNanos: 70e3, NanosPerByte: perByte(2) + 4}, true},
		{"no declared route", pl, "a", "e", Link{}, false},
		{"same unit", pl, "a", "a", Link{}, false},
		{"unknown unit", pl, "a", "nosuch", Link{}, false},
		{"no endpoint named", pl, "", "b", Link{}, false},
		{"no platform", nil, "a", "b", Link{}, false},
	}
	for _, c := range cases {
		got, ok := RouteLink(c.pl, c.from, c.to, def)
		if ok != c.ok || !near(got.LatNanos, c.want.LatNanos) || !near(got.NanosPerByte, c.want.NanosPerByte) {
			t.Errorf("%s: RouteLink(%s→%s) = %+v, %v; want %+v, %v", c.name, c.from, c.to, got, ok, c.want, c.ok)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	return d <= 1e-9*b && -d <= 1e-9*b
}
