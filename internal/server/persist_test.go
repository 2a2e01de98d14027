package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/predict"
	"repro/internal/registry"
)

// durableServer stands up a Server backed by a data dir, returning the
// pieces a test needs to kill and resurrect it.
type durableServer struct {
	dir     string
	reg     *registry.Registry
	tuner   *predict.Tuner
	persist *registry.Persistence
	srv     *Server
	url     string
}

func newDurableServer(t testing.TB, dir string) *durableServer {
	t.Helper()
	reg := registry.New()
	tuner := predict.NewTuner()
	persist, err := registry.OpenPersistence(dir, reg, tuner, registry.PersistOptions{Fsync: false, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { persist.Close() })
	s, ts := newTestServer(t, Config{Registry: reg, Tuner: tuner, Persist: persist})
	return &durableServer{dir: dir, reg: reg, tuner: tuner, persist: persist, srv: s, url: ts.URL}
}

// TestDurableRestartServesIdenticalState is the HTTP face of the
// kill-and-restart property: upload, overwrite, observe, hard-stop the
// process (close without compaction), restart over the same dir, and the
// new server answers with identical ETags, revisions, store version and
// prediction state.
func TestDurableRestartServesIdenticalState(t *testing.T) {
	dir := t.TempDir()
	d := newDurableServer(t, dir)

	resp, body := doReq(t, "PUT", d.url+"/platforms/gtx480", gtx480XML(t), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status = %d: %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	for i := 1; i <= 3; i++ {
		obs := fmt.Sprintf(`{"codelet":"dgemm","size":%d,"seconds":%g}`, 512*i, 0.004*float64(i))
		resp, body = doReq(t, "POST", d.url+"/platforms/gtx480/observe", []byte(obs), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe status = %d: %s", resp.StatusCode, body)
		}
	}
	resp, body = doReq(t, "GET", d.url+"/platforms/gtx480/predict?codelet=dgemm&size=1024", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d: %s", resp.StatusCode, body)
	}
	var predBefore struct {
		Seconds float64 `json:"seconds"`
		Samples int     `json:"samples"`
	}
	json.Unmarshal(body, &predBefore)
	versionBefore := d.reg.Version()

	// Hard stop: no compaction, no graceful anything — journal only.
	d.persist.Close()

	d2 := newDurableServer(t, dir)
	if got := d2.reg.Version(); got != versionBefore {
		t.Fatalf("restarted version = %d, want %d", got, versionBefore)
	}
	resp, body = doReq(t, "GET", d2.url+"/platforms/gtx480", nil, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET after restart = %d (etag drifted): %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, "GET", d2.url+"/platforms/gtx480/predict?codelet=dgemm&size=1024", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after restart = %d: %s", resp.StatusCode, body)
	}
	var predAfter struct {
		Seconds float64 `json:"seconds"`
		Samples int     `json:"samples"`
	}
	json.Unmarshal(body, &predAfter)
	if predAfter != predBefore {
		t.Fatalf("prediction drifted across restart: %+v vs %+v", predAfter, predBefore)
	}

	// Healthz reports the journal block with the replayed history.
	resp, body = doReq(t, "GET", d2.url+"/healthz", nil, nil)
	var hz struct {
		Status  string                 `json:"status"`
		Journal registry.PersistHealth `json:"journal"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz: %v: %s", err, body)
	}
	if hz.Status != "ok" || hz.Journal.Mode != "durable" || hz.Journal.ReplayedRecords == 0 {
		t.Fatalf("healthz journal block = %+v", hz)
	}
}

// TestJournalFailureGives503AndReadsKeepWorking drives the degradation
// contract over HTTP: after a journal write failure, every mutation gets
// 503 + Retry-After, reads still serve, /healthz says degraded, and the
// wal metrics expose the read-only flag.
func TestJournalFailureGives503AndReadsKeepWorking(t *testing.T) {
	d := newDurableServer(t, t.TempDir())
	resp, body := doReq(t, "PUT", d.url+"/platforms/gtx480", gtx480XML(t), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status = %d: %s", resp.StatusCode, body)
	}

	d.persist.SimulateJournalFailure()

	// The failing append happens on the next mutation...
	resp, body = doReq(t, "PUT", d.url+"/platforms/other", gtx480XML(t), nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("mutation during failure = %d (Retry-After %q): %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if _, ok := d.reg.Get("other"); ok {
		t.Fatal("failed mutation leaked into the store")
	}
	// ...and every subsequent mutation is rejected up front by the wrap
	// gate, across all mutating routes.
	for _, m := range []struct{ method, path, payload string }{
		{"PUT", "/platforms/another", string(gtx480XML(t))},
		{"DELETE", "/platforms/gtx480", ""},
		{"POST", "/platforms/gtx480/observe", `{"codelet":"dgemm","size":64,"seconds":0.01}`},
	} {
		var p []byte
		if m.payload != "" {
			p = []byte(m.payload)
		}
		resp, body = doReq(t, m.method, d.url+m.path, p, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s during read-only = %d: %s", m.method, m.path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s: missing Retry-After", m.method, m.path)
		}
	}

	// Reads keep working on the consistent in-memory state.
	for _, path := range []string{"/platforms", "/platforms/gtx480", "/platforms/gtx480/pus?kind=worker", "/metrics"} {
		resp, body = doReq(t, "GET", d.url+path, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s during read-only = %d: %s", path, resp.StatusCode, body)
		}
	}

	// Health and metrics surface the degradation.
	resp, body = doReq(t, "GET", d.url+"/healthz", nil, nil)
	var hz struct {
		Status  string                 `json:"status"`
		Journal registry.PersistHealth `json:"journal"`
	}
	json.Unmarshal(body, &hz)
	if hz.Status != "degraded" || !hz.Journal.ReadOnly || hz.Journal.LastError == "" {
		t.Fatalf("healthz during read-only = %+v", hz)
	}
	_, metricsBody := doReq(t, "GET", d.url+"/metrics", nil, nil)
	for _, want := range []string{
		"pdlserved_wal_read_only 1",
		"pdlserved_wal_append_errors_total 1",
		"pdlserved_readonly_rejected_total 3",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestWALMetricsExposed asserts the pdlserved_wal_* families render on a
// healthy durable server, including the fsync histogram wiring.
func TestWALMetricsExposed(t *testing.T) {
	d := newDurableServer(t, t.TempDir())
	doReq(t, "PUT", d.url+"/platforms/gtx480", gtx480XML(t), nil)
	_, body := doReq(t, "GET", d.url+"/metrics", nil, nil)
	for _, family := range []string{
		"pdlserved_wal_appends_total 1",
		"pdlserved_wal_replayed_records_total 0",
		"pdlserved_wal_torn_tails_total 0",
		"pdlserved_wal_journal_bytes",
		"pdlserved_wal_journal_records 1",
		"pdlserved_wal_snapshot_age_seconds",
		"pdlserved_wal_fsync_seconds_bucket",
		"pdlserved_wal_read_only 0",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("metrics missing %q", family)
		}
	}
}

// TestDuplicateUploadJournalsNothing pins the dedupe interaction: an
// identical re-upload must not grow the journal (replay stays cheap and
// ETag-stable).
func TestDuplicateUploadJournalsNothing(t *testing.T) {
	d := newDurableServer(t, t.TempDir())
	doReq(t, "PUT", d.url+"/platforms/gtx480", gtx480XML(t), nil)
	size := d.persist.JournalSize()
	resp, body := doReq(t, "PUT", d.url+"/platforms/gtx480", gtx480XML(t), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload status = %d: %s", resp.StatusCode, body)
	}
	if got := d.persist.JournalSize(); got != size {
		t.Fatalf("identical re-upload grew journal %d -> %d bytes", size, got)
	}
}

// TestExportImportServesIdenticalETags is the HTTP face of export → wipe →
// import: a server started over the imported bundle answers a conditional
// GET with 304 for every ETag the exporting server handed out, and predicts
// from the same samples.
func TestExportImportServesIdenticalETags(t *testing.T) {
	d := newDurableServer(t, t.TempDir())
	etags := map[string]string{}
	for _, name := range []string{"gtx480", "copy"} {
		resp, body := doReq(t, "PUT", d.url+"/platforms/"+name, gtx480XML(t), nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s = %d: %s", name, resp.StatusCode, body)
		}
		etags[name] = resp.Header.Get("ETag")
	}
	doReq(t, "POST", d.url+"/platforms/gtx480/observe", []byte(`{"codelet":"dgemm","size":512,"seconds":0.004}`), nil)
	_, predBefore := doReq(t, "GET", d.url+"/platforms/gtx480/predict?codelet=dgemm&size=1024", nil, nil)

	var bundle bytes.Buffer
	if _, err := d.persist.WriteBundle(&bundle); err != nil {
		t.Fatal(err)
	}
	d.persist.Close()
	dir := t.TempDir()
	if _, err := registry.ImportBundle(&bundle, dir); err != nil {
		t.Fatal(err)
	}

	d2 := newDurableServer(t, dir)
	for name, etag := range etags {
		resp, body := doReq(t, "GET", d2.url+"/platforms/"+name, nil, map[string]string{"If-None-Match": etag})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("conditional GET of %s after import = %d (etag drifted): %s", name, resp.StatusCode, body)
		}
	}
	if _, predAfter := doReq(t, "GET", d2.url+"/platforms/gtx480/predict?codelet=dgemm&size=1024", nil, nil); !bytes.Equal(predAfter, predBefore) {
		t.Fatalf("prediction after import = %s, want %s", predAfter, predBefore)
	}
}
