package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func workerServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestWorkerRegisterListDeregister(t *testing.T) {
	_, ts := workerServer(t)

	resp := postJSON(t, ts.URL+"/workers/w1", WorkerInfo{
		ID: "w1", Addr: "http://127.0.0.1:9001", Platform: "xeon-phi", Archs: []string{"x86"}, Workers: 4,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d; want 201", resp.StatusCode)
	}
	var reg workerOut
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if reg.TTLSeconds != workerTTL.Seconds() {
		t.Fatalf("ttl = %v; want %v", reg.TTLSeconds, workerTTL.Seconds())
	}

	// Re-registration is an upsert, not a conflict.
	if resp := postJSON(t, ts.URL+"/workers/w1", WorkerInfo{ID: "w1", Addr: "http://127.0.0.1:9002"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register status = %d; want 200", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Workers []workerOut `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 1 || list.Workers[0].Addr != "http://127.0.0.1:9002" {
		t.Fatalf("list = %+v; want the updated w1 lease", list.Workers)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/workers/w1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	if dresp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status = %d; want 404", dresp.StatusCode)
	}
}

func TestWorkerRegistrationValidation(t *testing.T) {
	_, ts := workerServer(t)
	// Missing addr.
	if resp := postJSON(t, ts.URL+"/workers/w1", WorkerInfo{ID: "w1"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-addr status = %d; want 400", resp.StatusCode)
	}
	// Mismatched id.
	if resp := postJSON(t, ts.URL+"/workers/w1", WorkerInfo{ID: "other", Addr: "http://x"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched-id status = %d; want 400", resp.StatusCode)
	}
}

func TestWorkerHeartbeatAndExpiry(t *testing.T) {
	s, ts := workerServer(t)
	now := time.Now()
	s.workers.now = func() time.Time { return now }

	postJSON(t, ts.URL+"/workers/w1", WorkerInfo{ID: "w1", Addr: "http://x"})
	if resp := postJSON(t, ts.URL+"/workers/w1/heartbeat", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat status = %d", resp.StatusCode)
	}

	// A beat inside the TTL keeps the lease alive past the original expiry.
	now = now.Add(workerTTL * 3 / 4)
	if resp := postJSON(t, ts.URL+"/workers/w1/heartbeat", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-ttl heartbeat status = %d", resp.StatusCode)
	}
	now = now.Add(workerTTL * 3 / 4)
	if got := s.workers.len(); got != 1 {
		t.Fatalf("lease count after renewal = %d; want 1", got)
	}

	// Silence past the TTL expires the lease; the next beat demands
	// re-registration.
	now = now.Add(2 * workerTTL)
	if got := s.workers.len(); got != 0 {
		t.Fatalf("lease count after expiry = %d; want 0", got)
	}
	if resp := postJSON(t, ts.URL+"/workers/w1/heartbeat", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired heartbeat status = %d; want 404", resp.StatusCode)
	}
}

// BeginDrain must refuse new lease obligations (register + heartbeat 503
// with Retry-After) while leaving reads and the rest of the API serving.
func TestDrainRefusesWorkerLeases(t *testing.T) {
	s, ts := workerServer(t)
	postJSON(t, ts.URL+"/workers/w1", WorkerInfo{ID: "w1", Addr: "http://x"})

	s.BeginDrain()
	resp := postJSON(t, ts.URL+"/workers/w2", WorkerInfo{ID: "w2", Addr: "http://y"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register during drain = %d; want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain rejection lacks Retry-After")
	}
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	if !strings.Contains(body.Error, "draining") {
		t.Fatalf("error = %q; want drain message", body.Error)
	}
	if resp := postJSON(t, ts.URL+"/workers/w1/heartbeat", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("heartbeat during drain = %d; want 503", resp.StatusCode)
	}

	// Reads still work: discovery of existing workers keeps serving so a
	// master can finish the wave it has in flight.
	lresp, err := http.Get(ts.URL + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("list during drain = %d; want 200", lresp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d", hresp.StatusCode)
	}
}

func TestWorkersMetricGauge(t *testing.T) {
	_, ts := workerServer(t)
	postJSON(t, ts.URL+"/workers/w1", WorkerInfo{ID: "w1", Addr: "http://x"})
	postJSON(t, ts.URL+"/workers/w2", WorkerInfo{ID: "w2", Addr: "http://y"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "pdlserved_workers 2") {
		t.Fatalf("metrics lack pdlserved_workers 2:\n%s", buf.String())
	}
}
