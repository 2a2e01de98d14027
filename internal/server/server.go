// Package server exposes the platform registry over HTTP: upload+validate
// of PDL XML, the query DSL shared with cmd/pdlquery, perfmodel-backed
// prediction and variant ranking, plus health and Prometheus-style metrics.
// The paper positions the PDL next to hwloc and the OpenCL platform query
// API; pdlserved is that query API lifted out of process, so runtimes,
// auto-tuners and remote workers consult one authoritative descriptor store
// instead of each re-parsing XML from disk.
//
// Production posture: bounded request bodies, per-client token-bucket rate
// limiting, structured JSON access logs, bounded-cardinality metrics keyed
// by route pattern, and handlers that evaluate queries against immutable
// registry snapshots so no request ever blocks an upload (or vice versa)
// beyond the map swap itself.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/repo"
	"repro/internal/trace"
)

// Config wires the server's dependencies and limits.
type Config struct {
	Registry *registry.Registry // required
	Tuner    *predict.Tuner     // optional; NewTuner when nil

	// Persist is the durability layer. When set, every mutation (platform
	// PUT/DELETE, observation) is write-ahead journaled before it is
	// applied, a journal-write failure degrades the server to read-only
	// (mutations answer 503 + Retry-After while reads keep working), and
	// /healthz + /metrics surface the journal state. Nil keeps the PR 3
	// in-memory behaviour.
	Persist *registry.Persistence

	MaxBodyBytes int64   // upload size cap; default 4 MiB
	RateLimit    float64 // requests/second per client; <= 0 disables
	RateBurst    float64 // bucket capacity; default 2*RateLimit (min 1)

	AccessLog io.Writer // JSON lines; nil disables

	// RuntimeMetrics is rendered on /metrics after the server's own
	// families; nil takes metrics.Default, where the task runtime registers
	// its taskrt_* instruments.
	RuntimeMetrics *metrics.Registry
}

// Server is the HTTP facade over the registry.
type Server struct {
	cfg     Config
	reg     *registry.Registry
	tuner   *predict.Tuner
	repo    *repo.Repository
	persist *registry.Persistence // nil = in-memory only
	metrics *serverMetrics
	limiter *rateLimiter
	logger  *accessLogger
	mux     *http.ServeMux

	workers  *workerTable
	fleet    *metrics.Federator
	draining atomic.Bool
}

// BeginDrain flips the server into drain mode: new worker registrations and
// heartbeat renewals answer 503 so the fleet fails over promptly, while
// reads and in-flight requests complete normally. Called by pdlserved ahead
// of http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// New builds a Server. The zero limits get production defaults.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = registry.New()
	}
	if cfg.Tuner == nil {
		cfg.Tuner = predict.NewTuner()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.RateBurst <= 0 {
		cfg.RateBurst = 2 * cfg.RateLimit
	}
	if cfg.RuntimeMetrics == nil {
		cfg.RuntimeMetrics = metrics.Default
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		tuner:   cfg.Tuner,
		repo:    repo.NewWithLibrary(),
		persist: cfg.Persist,
		metrics: newMetrics(),
		limiter: newRateLimiter(cfg.RateLimit, cfg.RateBurst),
		logger:  &accessLogger{w: cfg.AccessLog},
		mux:     http.NewServeMux(),
		workers: newWorkerTable(),
		fleet:   metrics.NewFederator(),
	}
	s.metrics.registerGauges(s)
	if s.persist != nil {
		s.metrics.registerWAL(s.persist)
	}
	s.routes()
	return s
}

// route registers a pattern with the full middleware chain; the pattern
// (not the raw path) keys the metrics, keeping label cardinality bounded.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.wrap(pattern, h))
}

func (s *Server) routes() {
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /platforms", s.handleList)
	s.route("PUT /platforms/{name}", s.handlePut)
	s.route("GET /platforms/{name}", s.handleGetXML)
	s.route("DELETE /platforms/{name}", s.handleDelete)
	s.route("GET /platforms/{name}/pus", s.handleQuery)
	s.route("GET /platforms/{name}/predict", s.handlePredict)
	s.route("GET /platforms/{name}/rank", s.handleRank)
	s.route("POST /platforms/{name}/observe", s.handleObserve)
	s.route("GET /workers", s.handleWorkerList)
	s.route("POST /workers/{id}", s.handleWorkerPut)
	s.route("POST /workers/{id}/heartbeat", s.handleWorkerBeat)
	s.route("DELETE /workers/{id}", s.handleWorkerDelete)
	s.route("GET /debug/trace", trace.Handler)
}

// Handler returns the root handler (for http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// wrap applies rate limiting, body bounding, metrics and access logging.
func (s *Server) wrap(pattern string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		client := clientKey(r)

		s.metrics.inflight.Inc()
		defer s.metrics.inflight.Dec()

		if !s.limiter.allow(client) {
			s.metrics.rateLimited.Inc()
			sw.Header().Set("Retry-After", "1")
			writeError(sw, http.StatusTooManyRequests, "rate limit exceeded")
		} else if s.readOnlyRejects(r) {
			// The durability layer has degraded: nothing further can be
			// made durable, so mutations are refused while reads (GET
			// /platforms, queries, predictions, metrics) keep serving from
			// the consistent in-memory state.
			s.metrics.readOnlyRejected.Inc()
			sw.Header().Set("Retry-After", "30")
			writeError(sw, http.StatusServiceUnavailable,
				"registry is read-only: journal write failed; mutations are not accepted")
		} else {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
			h(sw, r)
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)
		s.metrics.observe(r.Method, pattern, sw.status, dur)
		s.logger.log(accessRecord{
			Time:   start.UTC().Format(time.RFC3339Nano),
			Client: client,
			Method: r.Method,
			Path:   r.URL.Path,
			Status: sw.status,
			Bytes:  sw.bytes,
			Millis: float64(dur.Microseconds()) / 1000,
			Route:  pattern,
		})
	})
}

// readOnlyRejects reports whether the request is a mutation arriving while
// the durability layer is degraded.
func (s *Server) readOnlyRejects(r *http.Request) bool {
	if s.persist == nil || !s.persist.ReadOnly() {
		return false
	}
	return r.Method != http.MethodGet && r.Method != http.MethodHead
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error    string   `json:"error"`
	Problems []string `json:"problems,omitempty"`
}

func writeError(w http.ResponseWriter, code int, msg string, problems ...string) {
	writeJSON(w, code, errorBody{Error: msg, Problems: problems})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":    "ok",
		"platforms": s.reg.Len(),
		"version":   s.reg.Version(),
	}
	if s.persist != nil {
		h := s.persist.Health()
		body["journal"] = h
		if h.ReadOnly {
			body["status"] = "degraded"
		}
	} else {
		body["journal"] = map[string]string{"mode": "memory"}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics renders three layers in one scrape: the server's own
// families, the task runtime's taskrt_* in the shared registry, and the
// fleet's — node-labelled taskrt_fleet_* re-exported from the latest scrape
// of every leased worker, so one endpoint shows the whole cluster.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	metrics.Serve(w, s.metrics.reg, s.cfg.RuntimeMetrics, s.fleet)
}

// platformInfo is the JSON projection of a registry entry (sans document).
type platformInfo struct {
	Name     string   `json:"name"`
	Platform string   `json:"platform"` // the document's own name attribute
	ETag     string   `json:"etag"`
	Revision uint64   `json:"revision"`
	Units    int      `json:"units"`
	Warnings []string `json:"warnings,omitempty"`
}

func infoOf(e *registry.Entry) platformInfo {
	return platformInfo{
		Name:     e.Name,
		Platform: e.Platform.Name,
		ETag:     e.ETag,
		Revision: e.Revision,
		Units:    e.Platform.TotalUnits(),
		Warnings: e.Warnings,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.List()
	out := make([]platformInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, infoOf(e))
	}
	writeJSON(w, http.StatusOK, map[string]any{"platforms": out, "version": s.reg.Version()})
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.bodyTooBig.Inc()
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d byte limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	// Write-ahead ordering: the canonical document reaches the journal (and
	// disk, under -fsync) before the in-memory commit publishes it. A journal
	// failure means the mutation is not acknowledged.
	entry, changed, err := s.persist.Put(s.reg, name, body)
	if err != nil {
		if ve, ok := registry.AsValidationError(err); ok {
			writeError(w, http.StatusUnprocessableEntity, "platform failed validation", ve.Problems...)
		} else if errors.Is(err, registry.ErrReadOnly) {
			writeJournalError(w, err)
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	w.Header().Set("ETag", entry.ETag)
	code := http.StatusOK
	if changed && entry.Revision == 1 {
		code = http.StatusCreated
	}
	writeJSON(w, code, map[string]any{
		"platform": infoOf(entry),
		"changed":  changed,
		"version":  s.reg.Version(),
	})
}

func (s *Server) handleGetXML(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown platform")
		return
	}
	w.Header().Set("ETag", e.ETag)
	if match := r.Header.Get("If-None-Match"); ifNoneMatchHits(match, e.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Write(e.XML)
}

// ifNoneMatchHits implements the strong-comparison subset of RFC 9110
// If-None-Match: a comma-separated list of entity tags, or "*".
func ifNoneMatchHits(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, tag := range strings.Split(header, ",") {
		if strings.TrimSpace(tag) == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.reg.Get(name); !ok {
		writeError(w, http.StatusNotFound, "unknown platform")
		return
	}
	if err := s.persist.LogDelete(name, func() { s.reg.Delete(name) }); err != nil {
		writeJournalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": true, "version": s.reg.Version()})
}

// writeJournalError maps a durability-layer failure to 503 + Retry-After:
// the mutation was refused (or could not be made durable) and the client
// should retry against a healthy replica or after operator intervention.
func writeJournalError(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "30")
	writeError(w, http.StatusServiceUnavailable, err.Error())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	filters, err := query.ParseFilters(r.URL.Query())
	if err != nil {
		if fe, ok := query.AsFilterError(err); ok {
			writeError(w, http.StatusBadRequest, "invalid query", fe.Problems...)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	views, cached, err := s.reg.Query(name, filters)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "unknown platform") {
			code = http.StatusNotFound
		}
		writeError(w, code, err.Error())
		return
	}
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"platform": name,
		"query":    filters.CacheKey(),
		"count":    len(views),
		"pus":      views,
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown platform")
		return
	}
	codelet := r.URL.Query().Get("codelet")
	sizeStr := r.URL.Query().Get("size")
	if codelet == "" || sizeStr == "" {
		writeError(w, http.StatusBadRequest, "codelet and size query parameters are required")
		return
	}
	size, err := strconv.ParseFloat(sizeStr, 64)
	if err != nil || size <= 0 {
		writeError(w, http.StatusBadRequest, "size must be a positive number")
		return
	}
	pred, err := s.tuner.Predict(e.Platform, codelet, size)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"codelet": pred.Codelet,
		"pattern": pred.Pattern,
		"seconds": pred.Seconds,
		"samples": pred.Samples,
	})
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown platform")
		return
	}
	iface := r.URL.Query().Get("iface")
	sizeStr := r.URL.Query().Get("size")
	if iface == "" || sizeStr == "" {
		writeError(w, http.StatusBadRequest, "iface and size query parameters are required")
		return
	}
	size, err := strconv.ParseFloat(sizeStr, 64)
	if err != nil || size <= 0 {
		writeError(w, http.StatusBadRequest, "size must be a positive number")
		return
	}
	ranked, err := s.tuner.RankVariants(s.repo, iface, e.Platform, size)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	type rankedOut struct {
		Variant string  `json:"variant"`
		Seconds float64 `json:"seconds,omitempty"`
		Pattern string  `json:"pattern,omitempty"`
		Error   string  `json:"error,omitempty"`
	}
	out := make([]rankedOut, 0, len(ranked))
	for _, rk := range ranked {
		ro := rankedOut{Variant: rk.Variant.Name}
		if rk.Err != nil {
			ro.Error = rk.Err.Error()
		} else {
			ro.Seconds = rk.Prediction.Seconds
			ro.Pattern = rk.Prediction.Pattern
		}
		out = append(out, ro)
	}
	writeJSON(w, http.StatusOK, map[string]any{"iface": iface, "ranked": out})
}

// observation is the POST /platforms/{name}/observe payload.
type observation struct {
	Codelet string  `json:"codelet"`
	Size    float64 `json:"size"`
	Seconds float64 `json:"seconds"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown platform")
		return
	}
	var obs observation
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obs); err != nil {
		writeError(w, http.StatusBadRequest, "decoding observation: "+err.Error())
		return
	}
	if obs.Codelet == "" || obs.Size <= 0 || obs.Seconds <= 0 {
		writeError(w, http.StatusBadRequest, "observation needs codelet, positive size and positive seconds")
		return
	}
	// Validate before journaling (an unattributable observation must never
	// be written ahead), then journal, then record.
	if err := s.tuner.CheckObservable(e.Platform); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	var obsErr error
	err := s.persist.LogObserve(e.Name, obs.Codelet, obs.Size, obs.Seconds, func() {
		obsErr = s.tuner.Observe(e.Platform, obs.Codelet, obs.Size, obs.Seconds)
	})
	if err != nil {
		writeJournalError(w, err)
		return
	}
	if obsErr != nil {
		writeError(w, http.StatusUnprocessableEntity, obsErr.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"recorded": true})
}
