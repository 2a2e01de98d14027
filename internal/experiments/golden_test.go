package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/discover"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestSimTablesGolden pins every virtual-time table `pdlbench -exp NAME`
// prints, at pdlbench's default sizes, against a copy recorded before the sim
// engine's state moved into id-indexed tables (PR 19): makespans, task splits
// and transfer volumes must not move when the engine is only rearranged. The
// tables print four decimals; "reports" pins the same quantities bit for bit
// (hex floats) for every scheduler on the two-GPU platform. fig5_tile128
// (262 144 tasks a series) was recorded before the sim engine's ready tasks
// moved from a scanned slice into an ordered queue (PR 22), at the size that
// change was made for.
//
// Re-record (only when a result is meant to move) with
//
//	go test ./internal/experiments -run TestSimTablesGolden -update
func TestSimTablesGolden(t *testing.T) {
	tables := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"fig5_tile1024", func() (*Result, error) { return Figure5(Fig5Config{N: 8192, Tile: 1024, Scheduler: "dmda"}) }},
		{"fig5_tile256", func() (*Result, error) { return Figure5(Fig5Config{N: 8192, Tile: 256, Scheduler: "dmda"}) }},
		{"fig5_tile128", func() (*Result, error) { return Figure5(Fig5Config{N: 8192, Tile: 128, Scheduler: "dmda"}) }},
		{"sched", func() (*Result, error) { return SchedulerSweep(8192, 1024, nil) }},
		{"tiles", func() (*Result, error) { return TileSweep(8192, nil, "dmda") }},
		{"bw", func() (*Result, error) { return BandwidthSweep(8192, 1024, nil) }},
		{"crossover", func() (*Result, error) { return Crossover(nil, 1024) }},
		{"failover", func() (*Result, error) { return DynamicFailover(8192, 1024) }},
		{"stencil", func() (*Result, error) { return StencilSweep(1<<24, 64, 32) }},
		{"faults", func() (*Result, error) { return FaultTolerance(0, 0, 1) }},
		{"reports", exactReports},
	}
	for _, tb := range tables {
		t.Run(tb.name, func(t *testing.T) {
			res, err := tb.run()
			if err != nil {
				t.Fatal(err)
			}
			got := res.Table()
			path := filepath.Join("testdata", tb.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s moved.\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// exactReports runs the tiled DGEMM at 4096/256 on xeon-2gpu under every sim
// scheduler and prints each report's floats as their IEEE-754 bits.
func exactReports() (*Result, error) {
	res := &Result{
		Name:    "sim reports, DGEMM 4096 tile 256 on xeon-2gpu, floats as bits",
		Headers: []string{"scheduler", "makespan", "transfer-seconds", "transfer-bytes", "transfers", "per-unit tasks/busy"},
	}
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for _, sched := range []string{"ws", "dmda"} {
		rep, err := SimDGEMM(discover.MustPlatform("xeon-2gpu"), 4096, 256, sched)
		if err != nil {
			return nil, err
		}
		var units []string
		for _, u := range rep.PerUnit {
			units = append(units, fmt.Sprintf("%s:%d:%s", u.ID, u.Tasks, bits(u.BusySeconds)))
		}
		res.AddRow(sched, bits(rep.MakespanSeconds), bits(rep.TransferSeconds),
			fmt.Sprint(rep.TransferBytes), fmt.Sprint(rep.TransferCount), strings.Join(units, " "))
	}
	return res, nil
}
