package metrics

import (
	"io"
	"net/http"
	"net/http/pprof"
)

// ContentType is the Prometheus text exposition media type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Serve answers a scrape — every /metrics endpoint in the repo — with the
// families of each source (a Registry, a Federator), in argument order.
func Serve(w http.ResponseWriter, sources ...interface{ WritePrometheus(io.Writer) }) {
	w.Header().Set("Content-Type", ContentType)
	for _, s := range sources {
		s.WritePrometheus(w)
	}
}

// WithPprof returns h with net/http/pprof mounted in front of it under
// /debug/pprof/: what every -pprof flag turns on.
func WithPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}
