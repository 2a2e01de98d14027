package main

// The metric tables: the names, units, directions and bounds BENCHMARK.json
// carries (a test keeps the two in step). Every run reports every
// end-to-end metric (with tracing off) or every per-layer metric (traced
// pass); a per-layer metric a workload does not exercise reads 0.

// endToEnd are the metrics a user of the system sees. Every workload
// reports all four; README.md says what an operation is for each workload.
var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single modules; the layer is the module name
// before the dot.
var perLayer = []metricDef{
	{Name: "probe.fma_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "probe.memcpy_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "probe.host_ref_ms", Unit: "ms", Better: "lower"},

	{Name: "blas.gemm_packed_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.gemm_tile_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.potrf_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.trsm_rlt_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.syrk_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.gemm_nt_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.getrf_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.trsm_llu_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.trsm_ru_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.gemm_sub_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "blas.roofline_frac", Unit: "ratio", Better: "higher"},
	{Name: "blas.kernel_share", Unit: "ratio", Better: "higher"},

	{Name: "taskrt.makespan_ws_ms", Unit: "ms", Better: "lower"},
	{Name: "taskrt.makespan_dmda_ms", Unit: "ms", Better: "lower"},
	{Name: "taskrt.dmda_over_ws", Unit: "ratio", Better: "lower"},
	{Name: "taskrt.submit_us_per_task", Unit: "us", Better: "lower"},
	{Name: "taskrt.run_us_per_task", Unit: "us", Better: "lower"},
	{Name: "taskrt.steals", Unit: "count", Better: "lower"},
	{Name: "taskrt.steal_share", Unit: "ratio", Better: "lower"},
	{Name: "taskrt.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "taskrt.critpath_s", Unit: "s", Better: "lower"},
	{Name: "taskrt.critpath_share", Unit: "ratio", Better: "higher"},
	{Name: "taskrt.fast_share", Unit: "ratio", Better: "higher"},
	{Name: "taskrt.place_model_share", Unit: "ratio", Better: "higher"},
	{Name: "taskrt.failed_attempts", Unit: "count", Better: "lower"},

	{Name: "perfmodel.estimate_ns", Unit: "ns", Better: "lower"},
	{Name: "perfmodel.record_ns", Unit: "ns", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.critpath_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},

	{Name: "cluster.encode_us_per_tile", Unit: "us", Better: "lower"},
	{Name: "cluster.decode_us_per_tile", Unit: "us", Better: "lower"},
	{Name: "cluster.tile_wire_bytes", Unit: "count", Better: "lower"},
	{Name: "cluster.exec_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.exec_inline_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.per_task_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.shipped_mb", Unit: "MB", Better: "lower"},
	{Name: "cluster.ship_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.transfers", Unit: "count", Better: "lower"},
	{Name: "cluster.need_data", Unit: "count", Better: "lower"},
	{Name: "cluster.worker_util", Unit: "ratio", Better: "higher"},
	{Name: "cluster.resubmissions", Unit: "count", Better: "lower"},
	{Name: "cluster.stragglers", Unit: "count", Better: "lower"},

	{Name: "pdlxml.unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "pdlxml.marshal_us", Unit: "us", Better: "lower"},
	{Name: "pdlxml.doc_bytes", Unit: "count", Better: "lower"},
	{Name: "schema.validate_us", Unit: "us", Better: "lower"},
	{Name: "registry.prepare_us", Unit: "us", Better: "lower"},
	{Name: "registry.commit_us", Unit: "us", Better: "lower"},
	{Name: "registry.log_put_us", Unit: "us", Better: "lower"},
	{Name: "registry.log_observe_us", Unit: "us", Better: "lower"},
	{Name: "registry.journal_bytes_per_op", Unit: "count", Better: "lower"},
	{Name: "registry.snapshots", Unit: "count", Better: "lower"},
	{Name: "registry.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.query_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "registry.query_miss_us", Unit: "us", Better: "lower"},
	{Name: "registry.cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "query.parse_filters_ns", Unit: "ns", Better: "lower"},
	{Name: "query.apply_us", Unit: "us", Better: "lower"},
	{Name: "query.select_us", Unit: "us", Better: "lower"},
	{Name: "predict.predict_us", Unit: "us", Better: "lower"},
	{Name: "predict.observe_us", Unit: "us", Better: "lower"},

	{Name: "server.handler_query_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_predict_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_getxml_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_put_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_observe_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_self_query_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_self_put_us", Unit: "us", Better: "lower"},
	{Name: "server.transport_us", Unit: "us", Better: "lower"},
	{Name: "server.metrics_render_us", Unit: "us", Better: "lower"},
	{Name: "server.req_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.gen_late_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.gen_late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.backlog_growth", Unit: "count", Better: "lower"},

	{Name: "sim.tasks", Unit: "count", Better: "lower"},
	{Name: "sim.transfers", Unit: "count", Better: "lower"},
	{Name: "sim.transfer_mb", Unit: "MB", Better: "lower"},
	{Name: "sim.gpu_task_share", Unit: "ratio", Better: "higher"},
	{Name: "sim.wall_us_per_task", Unit: "us", Better: "lower"},
	{Name: "sim.fig5_speedup_cpu", Unit: "ratio", Better: "higher"},
	{Name: "sim.fig5_speedup_2gpu", Unit: "ratio", Better: "higher"},

	{Name: "go.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
}
