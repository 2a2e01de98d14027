package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Worker leases: pdlworkerd processes announce themselves so cluster
// masters can discover execution nodes through the same registry that
// already holds the platform descriptions they execute against. Leases are
// deliberately in-memory only — a worker that cannot heartbeat through a
// pdlserved restart re-registers on its next beat (registration is an
// idempotent upsert), so journaling leases would only resurrect stale
// entries. This mirrors how the paper separates the durable platform
// description from the transient population of units using it.

// workerTTL is the lease lifetime. The registry alone decides it: it answers
// every registration, renewal and listing with it as ttl_seconds, and
// pdlworkerd heartbeats at a third of the value its registration reply carries.
const workerTTL = 15 * time.Second

// WorkerInfo is the registration payload and the list projection of a
// lease. Addr is the worker's execute endpoint base URL; Platform names the
// PDL document (usually also registered here) describing the node; Archs
// are the architecture tags the worker's codelet registry can execute.
type WorkerInfo struct {
	ID       string   `json:"id"`
	Addr     string   `json:"addr"`
	Platform string   `json:"platform"`
	Archs    []string `json:"archs,omitempty"`
	Workers  int      `json:"workers,omitempty"` // local worker goroutines
}

// workerLease is a live registration with its expiry.
type workerLease struct {
	WorkerInfo
	Registered time.Time
	LastSeen   time.Time
}

// workerTable is the lease store. Expiry is lazy: reads prune on access, so
// no background reaper is needed and tests control time via now().
type workerTable struct {
	mu     sync.Mutex
	leases map[string]*workerLease
	now    func() time.Time
}

func newWorkerTable() *workerTable {
	return &workerTable{leases: map[string]*workerLease{}, now: time.Now}
}

// upsert registers or renews a lease, reporting whether it was new.
func (t *workerTable) upsert(info WorkerInfo) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.pruneLocked(now)
	l, ok := t.leases[info.ID]
	if !ok {
		l = &workerLease{Registered: now}
		t.leases[info.ID] = l
	}
	l.WorkerInfo = info
	l.LastSeen = now
	return !ok
}

// beat renews an existing lease; false means the lease is unknown or
// expired and the worker must re-register.
func (t *workerTable) beat(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.pruneLocked(now)
	l, ok := t.leases[id]
	if !ok {
		return false
	}
	l.LastSeen = now
	return true
}

func (t *workerTable) drop(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.leases[id]
	delete(t.leases, id)
	return ok
}

func (t *workerTable) pruneLocked(now time.Time) {
	for id, l := range t.leases {
		if now.Sub(l.LastSeen) > workerTTL {
			delete(t.leases, id)
		}
	}
}

// list returns active leases sorted by id.
func (t *workerTable) list() []workerLease {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pruneLocked(t.now())
	out := make([]workerLease, 0, len(t.leases))
	for _, l := range t.leases {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (t *workerTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pruneLocked(t.now())
	return len(t.leases)
}

// workerOut is the list/registration response shape.
type workerOut struct {
	WorkerInfo
	TTLSeconds float64 `json:"ttl_seconds"`
	AgeSeconds float64 `json:"age_seconds"`
}

func (s *Server) handleWorkerPut(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		// A drain must not take on new lease obligations: arriving workers
		// are told to come back to whatever replaces this process.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting worker leases")
		return
	}
	id := r.PathValue("id")
	var info WorkerInfo
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&info); err != nil {
		writeError(w, http.StatusBadRequest, "decoding worker registration: "+err.Error())
		return
	}
	if info.ID == "" {
		info.ID = id
	}
	if info.ID != id {
		writeError(w, http.StatusBadRequest, "body id does not match path id")
		return
	}
	if info.Addr == "" {
		writeError(w, http.StatusBadRequest, "worker registration needs addr")
		return
	}
	created := s.workers.upsert(info)
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, workerOut{WorkerInfo: info, TTLSeconds: workerTTL.Seconds()})
}

func (s *Server) handleWorkerBeat(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server is draining; not renewing worker leases")
		return
	}
	id := r.PathValue("id")
	if !s.workers.beat(id) {
		// Expired or never registered: the worker re-registers with the
		// full payload rather than us resurrecting a lease from thin air.
		writeError(w, http.StatusNotFound, "unknown worker lease (re-register)")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"renewed": true, "ttl_seconds": workerTTL.Seconds()})
}

func (s *Server) handleWorkerDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.workers.drop(id) {
		writeError(w, http.StatusNotFound, "unknown worker lease")
		return
	}
	// A deregistered worker's federated series must disappear with its
	// lease — a fleet scrape of a dead node would otherwise keep exporting
	// its last kernel histograms forever.
	s.fleet.Drop(id)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": true})
}

func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	leases := s.workers.list()
	now := s.workers.now()
	out := make([]workerOut, 0, len(leases))
	for _, l := range leases {
		out = append(out, workerOut{
			WorkerInfo: l.WorkerInfo,
			TTLSeconds: workerTTL.Seconds(),
			AgeSeconds: now.Sub(l.Registered).Seconds(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"workers": out})
}
