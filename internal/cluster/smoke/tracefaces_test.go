package smoke

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/trace"
)

// Every HTTP face of a trace is trace.Serve: pdlserved's /debug/trace, the
// master's (cluster.DebugHandler, what pdlbench -pprof mounts) and a worker's
// /v1/trace must agree on status and media type per format, on 400 for an
// unknown format and on 404 when there is no trace. They differ only in which
// trace they serve and in the default format.
func TestTraceHandlerFaces(t *testing.T) {
	prev := trace.Published()
	t.Cleanup(func() { trace.Publish(prev) })
	pub := trace.New()
	pub.Record(trace.Event{Kind: trace.Task, Unit: "worker0", Label: "t", End: 1})
	pub.Record(trace.Event{Kind: trace.Task, Unit: "worker1", Label: "u", Start: 1, End: 2, TaskID: 1, ParentIDs: []int{0}})
	trace.Publish(pub)

	w, err := cluster.NewWorker(cluster.WorkerConfig{Name: "w", Archs: []string{"x86"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pub.Events() {
		w.Trace().Record(e)
	}

	const chrome, jsonl = "application/json", "application/x-ndjson"
	faces := []struct {
		name, path   string
		h            http.Handler
		defaultMedia string
	}{
		{"pdlserved", "/debug/trace", server.New(server.Config{}).Handler(), chrome},
		{"master", "/debug/trace", cluster.DebugHandler(), chrome},
		{"worker", cluster.PathTrace, w.Handler(), jsonl},
	}
	for _, f := range faces {
		ts := httptest.NewServer(f.h)
		defer ts.Close()
		for _, c := range []struct {
			query, media string
			status       int
		}{
			{"", f.defaultMedia, http.StatusOK},
			{"?format=chrome", chrome, http.StatusOK},
			{"?format=jsonl", jsonl, http.StatusOK},
			{"?format=svg", "", http.StatusBadRequest},
			{"?drain=1&format=svg", "", http.StatusBadRequest},
		} {
			resp, err := http.Get(ts.URL + f.path + c.query)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status {
				t.Errorf("%s %s%s: status %d, want %d", f.name, f.path, c.query, resp.StatusCode, c.status)
				continue
			}
			if c.status != http.StatusOK {
				continue
			}
			if got := resp.Header.Get("Content-Type"); got != c.media {
				t.Errorf("%s %s%s: Content-Type %q, want %q", f.name, f.path, c.query, got, c.media)
			}
			if got, err := trace.ReadBytes(body); err != nil || got.Len() != pub.Len() {
				t.Errorf("%s %s%s: body does not read back as the %d-event trace: %v", f.name, f.path, c.query, pub.Len(), err)
			}
		}
	}
	// The refused ?drain=1 above must not have consumed the worker's spans.
	if got := w.Trace().Len(); got != pub.Len() {
		t.Errorf("worker buffer holds %d spans after a refused drain, want %d", got, pub.Len())
	}

	// No trace: the published-trace faces answer 404 (a worker always has its
	// buffer).
	trace.Publish(nil)
	for _, f := range faces[:2] {
		rec := httptest.NewRecorder()
		f.h.ServeHTTP(rec, httptest.NewRequest("GET", f.path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s with nothing published: status %d, want 404", f.name, f.path, rec.Code)
		}
	}
}
