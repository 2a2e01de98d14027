package experiments

import (
	"fmt"
	"strings"

	"repro/internal/discover"
	"repro/internal/dynamic"
	"repro/internal/query"
)

// DynamicFailover is experiment Ext-F, exercising the paper's future-work
// direction (Section VI): platform descriptors that track dynamically
// changing resources. The DGEMM workload is re-planned against tracker
// snapshots as GPUs drop out of the machine: first the GTX480 fails, then
// the GTX285, leaving the CPU-only configuration. Each re-plan is a full
// pre-selection + scheduling pass over the *current* descriptor — no
// application change.
func DynamicFailover(n, tile int) (*Result, error) {
	pl, err := discover.Platform("xeon-2gpu")
	if err != nil {
		return nil, err
	}
	tracker, err := dynamic.NewTracker(pl)
	if err != nil {
		return nil, err
	}
	var events []string
	tracker.OnChange(func(e dynamic.Event) {
		events = append(events, fmt.Sprintf("v%d:%s:%s", e.Version, e.Kind, e.PU))
	})

	res := &Result{
		Name:    fmt.Sprintf("Ext-F: dynamic failover, DGEMM %d tile %d (dmda) on tracked xeon-2gpu", n, tile),
		Headers: []string{"stage", "online-gpus", "makespan[s]", "gpu-tasks"},
	}
	stages := []struct {
		label string
		fail  string // unit to take offline before this stage ("" = none)
	}{
		{"all-online", ""},
		{"gtx480-failed", "dev0"},
		{"both-gpus-failed", "dev1"},
	}
	for _, stage := range stages {
		if stage.fail != "" {
			if err := tracker.SetOffline(stage.fail); err != nil {
				return nil, err
			}
		}
		snap, err := tracker.Snapshot()
		if err != nil {
			return nil, err
		}
		rep, err := SimDGEMM(snap, n, tile, "dmda")
		if err != nil {
			return nil, err
		}
		gpus := len(query.MustSelect(snap, "//Worker[ARCHITECTURE=gpu]"))
		res.AddRow(stage.label, fmt.Sprint(gpus), f4(rep.MakespanSeconds), onArch(rep, "gpu"))
	}
	res.Notes = append(res.Notes, "tracker events: "+strings.Join(events, " "))
	return res, nil
}
