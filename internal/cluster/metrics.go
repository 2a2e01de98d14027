package cluster

import "repro/internal/metrics"

// Cluster metrics mirror the in-process taskrt_* families at node
// granularity, registered in the shared metrics.Default registry so a
// master embedded in pdlbench or pdlserved exposes them on the same scrape.
// Label cardinality is bounded by the node count, never by task count.

var clusterTaskBuckets = []float64{
	1e-4, 1e-3, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

var cm = struct {
	tasks       *metrics.CounterVec   // {node}
	taskSeconds *metrics.HistogramVec // {node}
	inflight    *metrics.GaugeVec     // {node}
	transfers   *metrics.CounterVec   // {node}
	transferB   *metrics.CounterVec   // {node}
	returnB     *metrics.CounterVec   // {node}
	retries     *metrics.CounterVec   // {node}
	resubmits   *metrics.CounterVec   // {node}
	needData    *metrics.CounterVec   // {node}
	nodeUp      *metrics.GaugeVec     // {node}
	hbMisses    *metrics.CounterVec   // {node}
	decisions   *metrics.CounterVec   // {reason}
	stragglers  *metrics.CounterVec   // {node}
	slowdown    *metrics.GaugeVec     // {node}
	residual    *metrics.HistogramVec // {node}
	execRTT     *metrics.HistogramVec // {node}
	reconnects  *metrics.CounterVec   // {node}

	invocationTasks *metrics.Histogram
}{
	tasks: metrics.Default.CounterVec("taskrt_cluster_tasks_total",
		"Tasks completed and applied, by executing node.", "node"),
	taskSeconds: metrics.Default.HistogramVec("taskrt_cluster_task_seconds",
		"Kernel execution latency reported by workers, by node.", clusterTaskBuckets, "node"),
	inflight: metrics.Default.GaugeVec("taskrt_cluster_inflight",
		"Invocations currently dispatched to the node and not yet applied.", "node"),
	transfers: metrics.Default.CounterVec("taskrt_cluster_transfers_total",
		"Payloads inlined to the node (worker cache misses by version).", "node"),
	transferB: metrics.Default.CounterVec("taskrt_cluster_transfer_bytes_total",
		"Encoded payload bytes shipped to the node.", "node"),
	returnB: metrics.Default.CounterVec("taskrt_cluster_return_bytes_total",
		"Encoded bytes of the written payloads the node sent back and the master applied: one frame per handle a chain wrote, at its final version.", "node"),
	retries: metrics.Default.CounterVec("taskrt_cluster_retries_total",
		"Failed attempts re-queued with backoff, by node of the failure.", "node"),
	resubmits: metrics.Default.CounterVec("taskrt_cluster_resubmits_total",
		"Tasks (every member of each in-flight chain) resubmitted after their node was declared dead.", "node"),
	needData: metrics.Default.CounterVec("taskrt_cluster_need_data_total",
		"Dispatches bounced for missing cached data and re-inlined (not a fault).", "node"),
	nodeUp: metrics.Default.GaugeVec("taskrt_cluster_node_up",
		"1 while the node is alive (heartbeats within the miss budget), else 0.", "node"),
	hbMisses: metrics.Default.CounterVec("taskrt_cluster_heartbeat_misses_total",
		"Heartbeat probes that failed or timed out, by node.", "node"),
	decisions: metrics.Default.CounterVec("taskrt_cluster_decisions_total",
		"Node placement decisions by prediction source: model = perfmodel history, fallback = observed node mean, cold = no history anywhere.", "reason"),
	stragglers: metrics.Default.CounterVec("taskrt_cluster_stragglers_total",
		"Tasks whose observed latency exceeded the model estimate their placement used by more than the configured multiple, by node.", "node"),
	slowdown: metrics.Default.GaugeVec("taskrt_cluster_node_slowdown",
		"EWMA of observed/estimated kernel latency per node (1 = on model; series deleted when the node dies).", "node"),
	residual: metrics.Default.HistogramVec("taskrt_cluster_residual_ratio",
		"Observed/estimated kernel latency for model-placed tasks, by node.", residualBuckets, "node"),
	execRTT: metrics.Default.HistogramVec("taskrt_cluster_exec_rtt_seconds",
		"One invocation on the node's execute stream, from its request fully written to its response read: wire, remote queue, the chain's kernels.", clusterTaskBuckets, "node"),
	reconnects: metrics.Default.CounterVec("taskrt_cluster_stream_reconnects_total",
		"Execute streams opened to the node after its first of the run: one per broken stream or rejoin.", "node"),
	invocationTasks: metrics.Default.Histogram("taskrt_cluster_invocation_tasks",
		"Tasks per dispatched invocation: the length of the chain the master fused behind the task it placed.", invocationBuckets),
}

var invocationBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// residualBuckets resolve the observed/estimated ratio: < 1 is faster than
// modelled, the high tail is where stragglers live.
var residualBuckets = []float64{
	0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 6, 8, 16, 32, 64,
}
