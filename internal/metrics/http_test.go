package metrics

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Serve is every /metrics endpoint's body: the sources in order, under the
// one content type; WithPprof puts the profiler in front of a handler and
// leaves the rest of its paths alone.
func TestServeAndWithPprof(t *testing.T) {
	a, b := New(), New()
	a.Counter("first_total", "Registered in a.").Inc()
	b.Gauge("second", "Registered in b.").Set(2)
	h := WithPprof(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { Serve(w, a, b) }))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var want strings.Builder
	a.WritePrometheus(&want)
	b.WritePrometheus(&want)
	if got := rec.Header().Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type %q, want %q", got, ContentType)
	}
	if rec.Body.String() != want.String() || !strings.Contains(want.String(), "first_total 1\n") {
		t.Errorf("scrape body:\n%s\nwant the two registries in order:\n%s", rec.Body.String(), want.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "first_total") {
		t.Errorf("/debug/pprof/cmdline: status %d, body %q; want the profiler's answer", rec.Code, rec.Body.String())
	}
}
