package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func gtx480XML(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "discover", "platforms", "gtx480.pdl.xml"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doReq(t testing.TB, method, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// metricValue extracts the value of a plain (unlabelled) metric line.
func metricValue(t testing.TB, metricsBody, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(metricsBody)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, metricsBody)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The issue's acceptance scenario: upload the example GTX480 platform XML,
// query workers by logic group over HTTP, record observations, get a
// prediction, and watch /metrics counters advance; a repeated query must be
// served by the cache (asserted via the cache-hit metric).
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// 1. Upload.
	resp, body := doReq(t, "PUT", ts.URL+"/platforms/gtx480", gtx480XML(t), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d: %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("PUT returned no ETag")
	}
	var putOut struct {
		Platform struct {
			Revision uint64 `json:"revision"`
			Units    int    `json:"units"`
		} `json:"platform"`
		Changed bool   `json:"changed"`
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &putOut); err != nil {
		t.Fatal(err)
	}
	if !putOut.Changed || putOut.Platform.Revision != 1 || putOut.Version != 1 {
		t.Fatalf("put response = %+v", putOut)
	}

	// 2. Query workers by logic group through the DSL.
	queryURL := ts.URL + "/platforms/gtx480/pus?kind=worker&group=devset"
	resp, body = doReq(t, "GET", queryURL, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first query X-Cache = %q; want miss", got)
	}
	var qOut struct {
		Count int `json:"count"`
		PUs   []struct {
			ID    string `json:"id"`
			Class string `json:"class"`
			Arch  string `json:"arch"`
		} `json:"pus"`
	}
	if err := json.Unmarshal(body, &qOut); err != nil {
		t.Fatal(err)
	}
	if qOut.Count != 1 || qOut.PUs[0].ID != "dev0" || qOut.PUs[0].Arch != "gpu" {
		t.Fatalf("query result = %+v", qOut)
	}

	// 3. The repeated identical query is served from the cache.
	resp, _ = doReq(t, "GET", queryURL, nil, nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeated query X-Cache = %q; want hit", got)
	}

	// 4. Observe three calibration points, then predict.
	for _, obs := range []string{
		`{"codelet":"dgemm","size":1e9,"seconds":0.1}`,
		`{"codelet":"dgemm","size":2e9,"seconds":0.2}`,
		`{"codelet":"dgemm","size":4e9,"seconds":0.4}`,
	} {
		resp, body = doReq(t, "POST", ts.URL+"/platforms/gtx480/observe", []byte(obs), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe status = %d: %s", resp.StatusCode, body)
		}
	}
	resp, body = doReq(t, "GET", ts.URL+"/platforms/gtx480/predict?codelet=dgemm&size=3e9", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d: %s", resp.StatusCode, body)
	}
	var pOut struct {
		Seconds float64 `json:"seconds"`
		Pattern string  `json:"pattern"`
		Samples int     `json:"samples"`
	}
	if err := json.Unmarshal(body, &pOut); err != nil {
		t.Fatal(err)
	}
	// Observations describe a 10 GFLOP/s machine; 3e9 ⇒ ~0.3 s.
	if pOut.Seconds < 0.25 || pOut.Seconds > 0.35 {
		t.Fatalf("predicted %g s; want ~0.3", pOut.Seconds)
	}
	if pOut.Pattern == "" || pOut.Samples != 3 {
		t.Fatalf("prediction = %+v", pOut)
	}

	// 5. Metrics advanced: request counters, cache hit, store version.
	_, mBody := doReq(t, "GET", ts.URL+"/metrics", nil, nil)
	metrics := string(mBody)
	if v := metricValue(t, metrics, "pdlserved_query_cache_hits_total"); v < 1 {
		t.Fatalf("cache hits = %g; want >= 1", v)
	}
	if v := metricValue(t, metrics, "pdlserved_store_version"); v != 1 {
		t.Fatalf("store version metric = %g; want 1", v)
	}
	if v := metricValue(t, metrics, "pdlserved_platforms"); v != 1 {
		t.Fatalf("platforms metric = %g; want 1", v)
	}
	if v := metricValue(t, metrics, "pdlserved_request_seconds_count"); v < 7 {
		t.Fatalf("request count = %g; want >= 7", v)
	}
	if !strings.Contains(metrics, `pdlserved_requests_total{method="GET",route="GET /platforms/{name}/pus",code="200"} 2`) {
		t.Fatalf("per-route counter missing:\n%s", metrics)
	}
}

// Satellite: conditional GETs — If-None-Match on the current ETag returns
// 304 with no body; a stale ETag returns the full document.
func TestConditionalGet(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := doReq(t, "PUT", ts.URL+"/platforms/gtx480", gtx480XML(t), nil)
	etag := resp.Header.Get("ETag")

	resp, body := doReq(t, "GET", ts.URL+"/platforms/gtx480", nil, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("<Platform")) {
		t.Fatalf("GET = %d, body %q", resp.StatusCode, body[:min(40, len(body))])
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("GET ETag %q != PUT ETag %q", resp.Header.Get("ETag"), etag)
	}

	resp, body = doReq(t, "GET", ts.URL+"/platforms/gtx480", nil, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %d; want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried a body: %q", body)
	}
	// List syntax and * also hit.
	resp, _ = doReq(t, "GET", ts.URL+"/platforms/gtx480", nil, map[string]string{"If-None-Match": `"zzz", ` + etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("list conditional GET = %d; want 304", resp.StatusCode)
	}
	resp, _ = doReq(t, "GET", ts.URL+"/platforms/gtx480", nil, map[string]string{"If-None-Match": "*"})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("wildcard conditional GET = %d; want 304", resp.StatusCode)
	}
	// Stale tag: full response.
	resp, _ = doReq(t, "GET", ts.URL+"/platforms/gtx480", nil, map[string]string{"If-None-Match": `"0000"`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale conditional GET = %d; want 200", resp.StatusCode)
	}
}

func TestUploadValidationRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := `<Platform name="dup" schemaVersion="1.0">
  <Master id="m"><PUDescriptor><Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property></PUDescriptor>
    <Worker id="w"><PUDescriptor><Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property></PUDescriptor></Worker>
    <Worker id="w"><PUDescriptor><Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property></PUDescriptor></Worker>
  </Master>
</Platform>`
	resp, body := doReq(t, "PUT", ts.URL+"/platforms/dup", []byte(doc), nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out errorBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Problems) == 0 {
		t.Fatalf("422 body lists no problems: %s", body)
	}
	resp, _ = doReq(t, "PUT", ts.URL+"/platforms/junk", []byte("not xml"), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparseable upload status = %d; want 400", resp.StatusCode)
	}
}

// Satellite: every invalid filter argument is reported in one pass.
func TestQueryReportsAllProblems(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doReq(t, "PUT", ts.URL+"/platforms/gtx480", gtx480XML(t), nil)
	resp, body := doReq(t, "GET",
		ts.URL+"/platforms/gtx480/pus?kind=banana&limit=-3&bogus=1&select=%2F%2FUnknown", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out errorBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Problems) != 4 {
		t.Fatalf("problems = %v; want all 4 reported", out.Problems)
	}
}

func TestNotFoundRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{
		"/platforms/nope",
		"/platforms/nope/pus",
		"/platforms/nope/predict?codelet=x&size=1",
		"/platforms/nope/rank?iface=x&size=1",
	} {
		resp, _ := doReq(t, "GET", ts.URL+url, nil, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d; want 404", url, resp.StatusCode)
		}
	}
	resp, _ := doReq(t, "DELETE", ts.URL+"/platforms/nope", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE = %d; want 404", resp.StatusCode)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, _ := doReq(t, "PUT", ts.URL+"/platforms/big", gtx480XML(t), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d; want 413", resp.StatusCode)
	}
	_, mBody := doReq(t, "GET", ts.URL+"/metrics", nil, nil)
	if v := metricValue(t, string(mBody), "pdlserved_body_too_large_total"); v != 1 {
		t.Fatalf("body_too_large metric = %g; want 1", v)
	}
}

func TestRateLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{RateLimit: 1, RateBurst: 3})
	// Freeze the limiter clock so the bucket cannot refill mid-test.
	now := time.Now()
	s.limiter.now = func() time.Time { return now }
	saw429 := false
	for i := 0; i < 6; i++ {
		resp, _ := doReq(t, "GET", ts.URL+"/healthz", nil, nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("429 without Retry-After")
			}
		}
	}
	if !saw429 {
		t.Fatal("burst of 6 against burst=3 never rate-limited")
	}
	// Advancing the clock refills the bucket.
	now = now.Add(5 * time.Second)
	resp, _ := doReq(t, "GET", ts.URL+"/healthz", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after refill: %d", resp.StatusCode)
	}
	_, mBody := doReq(t, "GET", ts.URL+"/metrics", nil, nil)
	if v := metricValue(t, string(mBody), "pdlserved_ratelimited_total"); v < 1 {
		t.Fatalf("ratelimited metric = %g; want >= 1", v)
	}
}

func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: &buf})
	doReq(t, "GET", ts.URL+"/healthz", nil, nil)
	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %q", line)
	}
	if rec["method"] != "GET" || rec["path"] != "/healthz" || rec["status"] != float64(200) {
		t.Fatalf("record = %v", rec)
	}
	if _, ok := rec["ms"]; !ok {
		t.Fatalf("record lacks latency: %v", rec)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the access-log test (the
// handler writes from server goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Concurrent uploads and queries through the full HTTP stack; run under
// -race via the Makefile race subset.
func TestConcurrentHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := gtx480XML(t)
	alt := bytes.Replace(doc, []byte("devset"), []byte("altset"), 1)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := doc
				if i%2 == 0 {
					body = alt
				}
				resp, data := doReq(t, "PUT", fmt.Sprintf("%s/platforms/p%d", ts.URL, w), body, nil)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
					t.Errorf("PUT = %d: %s", resp.StatusCode, data)
					return
				}
			}
		}(w)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				url := fmt.Sprintf("%s/platforms/p%d/pus?kind=worker", ts.URL, i%3)
				resp, _ := doReq(t, "GET", url, nil, nil)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("GET = %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	resp, body := doReq(t, "GET", ts.URL+"/metrics", nil, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("pdlserved_requests_total")) {
		t.Fatalf("metrics after hammer: %d", resp.StatusCode)
	}
}

func TestObserveRejectsBadPayloads(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doReq(t, "PUT", ts.URL+"/platforms/gtx480", gtx480XML(t), nil)
	for _, payload := range []string{
		`{"codelet":"","size":1,"seconds":1}`,
		`{"codelet":"x","size":-1,"seconds":1}`,
		`{"codelet":"x","size":1,"seconds":0}`,
		`{"codelet":"x","size":1,"seconds":1,"extra":true}`,
		`not json`,
	} {
		resp, _ := doReq(t, "POST", ts.URL+"/platforms/gtx480/observe", []byte(payload), nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("payload %q status = %d; want 400", payload, resp.StatusCode)
		}
	}
}
