package cluster

import (
	"net/http"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// DebugHandler is the master-side observability surface: the live merged
// cluster trace (republished every publishEvery completions while a run
// progresses), the process metrics including the taskrt_cluster_*
// families, and pprof. A master is usually embedded (pdlbench, a test, an
// application), so this is a handler to mount rather than a daemon feature —
// pdlserved wires the equivalent endpoints itself.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/trace", trace.Handler)
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		metrics.Serve(rw, metrics.Default)
	})
	return metrics.WithPprof(mux)
}
