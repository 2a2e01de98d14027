package cluster

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/trace"
)

// Straggler & anomaly detection: every successful model-placed execution is
// compared against the perfmodel estimate its placement actually used. The
// per-task residual (observed / estimated) feeds a histogram and a per-node
// EWMA slowdown score; tasks whose residual exceeds the configured multiple
// are flagged (metric, Straggler trace instant, structured log), and the
// slowdown score back-pressures the EFT placer — a slow node's estimates are
// scaled up, so work drains toward healthy nodes ("Revisiting Matrix Product
// on Master-Worker Platforms": stragglers dominate makespan unless the
// master adapts). Eviction stays with the heartbeats.

// The detector's thresholds. A task is flagged when its observed latency
// exceeds stragglerMultiple × the model estimate its placement used, once its
// node has stragglerMinSamples model-placed observations — cold models
// mis-estimate, and a detector that cries wolf during warmup gets ignored.
// stragglerAlpha is the EWMA weight of the newest residual in the node's
// slowdown score (the first observation seeds the score directly).
const (
	stragglerMultiple   = 4.0
	stragglerMinSamples = 3
	stragglerAlpha      = 0.25
)

// observeResidual runs on the loop goroutine for every successful execution
// of a chain member that was placed on a perfmodel estimate; the residual is
// against that member's own estimate, unscaled (not the slowdown-scaled
// Charge of the chain).
func (st *runState) observeResidual(n *nodeState, m member, obsSeconds float64) {
	t := m.task
	modelEst := float64(m.exec)
	if m.src != placement.Model || modelEst <= 0 || obsSeconds <= 0 {
		return
	}
	ratio := obsSeconds * 1e9 / modelEst
	cm.residual.With(n.cfg.Name).Observe(ratio)
	if n.slowSamples == 0 {
		n.slowEWMA = ratio
	} else {
		n.slowEWMA = (1-stragglerAlpha)*n.slowEWMA + stragglerAlpha*ratio
	}
	n.slowSamples++
	n.stats.Slowdown = n.slowEWMA
	cm.slowdown.With(n.cfg.Name).Set(n.slowEWMA)

	if n.slowSamples >= stragglerMinSamples && ratio > stragglerMultiple {
		n.stats.Stragglers++
		cm.stragglers.With(n.cfg.Name).Inc()
		reason := fmt.Sprintf("x%.1f vs model (est %.3fms obs %.3fms score x%.1f)",
			ratio, modelEst/1e6, obsSeconds*1e3, n.slowEWMA)
		st.instant(trace.Event{Kind: trace.Straggler, Node: n.cfg.Name, Label: t.Label, TaskID: t.ID(), From: reason})
		st.m.logf("cluster: straggler: node=%s task=%d label=%q attempt=%d ratio=%.2f est_ms=%.3f obs_ms=%.3f score=%.2f",
			n.cfg.Name, t.ID(), t.Label, st.task[t.ID()].attempts, ratio, modelEst/1e6, obsSeconds*1e3, n.slowEWMA)
	}
}
