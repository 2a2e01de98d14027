package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/pdlxml"
	"repro/internal/predict"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/server"
)

var serveRead = workload{
	name: "serve-read",
	why: "pdlserved read path over loopback HTTP: 70% Zipf-filtered PU queries over a working set six times the " +
		"query cache, 25% predictions, 5% conditional GETs; no journal, no XML parse",
	tailP: 0.99, nominalN: 7800, // the open-loop phase of a 12 s run, cut into half-second windows
	setup: func(w workload, p params) (runner, error) { return setupServe(w, p, false) },
}

var serveWrite = workload{
	name: "serve-write",
	why: "the same server with a fsynced journal: 20% content-distinct PUTs, 30% observations, 50% queries on the " +
		"platforms being rewritten, so XML parse, validation, WAL fsync and cache invalidation dominate",
	// p75 although the count allows p99: above it the percentiles follow the
	// host's wake-up and stall times, not the server (README.md, "Bounds").
	tailP: 0.75, nominalN: 1170,
	setup: func(w workload, p params) (runner, error) { return setupServe(w, p, true) },
}

// hotPlatforms are the ones serve-write rewrites, observes and queries: a
// small, a medium and a large document (0.6, 3 and 6.5 KB). They are fixed,
// not picked by the seed, because a PUT costs by the size of its document
// and the seed must not decide how heavy the workload is.
var hotPlatforms = []string{"gpgpu-node", "cell-blade", "xeon-2gpu"}

// Open-loop arrival rates (requests per second) and the share of a run's
// seconds spent in the open-loop phase; the rest is the closed-loop phase.
const (
	readRate      = 1000.0
	writeRate     = 150.0
	writeRateB    = 400.0 // mutations per second during serve-write's phase B
	mutatingShare = 0.5   // of writeMix
	openLoopShare = 0.65
	// closedClients × nproc clients run the closed loop: enough that the
	// server always has a request waiting, so the rate is its capacity and
	// not clients ÷ latency (with nproc clients it read 20 % lower).
	closedClients  = 4
	layerReplayMax = 2000 // requests replayed by hand in the traced pass
)

type serveRunner struct {
	w     workload
	p     params
	write bool
	rate  float64
	mix   mix

	reg     *registry.Registry
	tuner   *predict.Tuner
	persist *registry.Persistence
	dataDir string
	srv     *server.Server
	httpSrv *http.Server
	served  sync.WaitGroup
	logFile *os.File
	base    string
	hc      *http.Client
	stopped bool

	catalog       []filterCombo
	expectCount   []int                          // PUs each catalog entry selects, by in-process query
	expectPredict map[string]map[float64]float64 // serve-read: the one answer each predict has
	etags         map[string]string
	templates     map[string][]byte
	observable    []string
	hot           []string
	variant       atomic.Int64 // PUT bodies never repeat within a run

	flushMu sync.Mutex
	flushes []flush // serve-write: every fsync of the journal, in order
}

// flush is one fsync of the journal, as Persistence.SetFsyncObserver reports it.
type flush struct{ start, end time.Time }

// flushNominal stands in for the device's share of a mutating request (see
// deviceAdjusted): a quiet fsync of a small append on the development host.
const flushNominal = 250 * time.Microsecond

// deviceAdjusted returns the phase's latencies scaled window by window to the
// reference host speed (ks, from windowScales), with, for each mutating
// request, the time it was in flight while the journal's fsync ran replaced
// by flushNominal. The device is the host's, not the program's: on the
// development host the journal's median fsync moved between 0.3 and 3 ms
// within minutes and the median PUT with it (1.3-4.8 ms), while the rest of
// the request stayed put. A change that flushes less often, or waits for a
// flush more cleverly, still shows: only the seconds inside fsync are taken out.
func (r *serveRunner) deviceAdjusted(s *phaseStats, ks []float64) []float64 {
	r.flushMu.Lock()
	flushes := append([]flush(nil), r.flushes...)
	r.flushMu.Unlock()
	out := make([]float64, len(s.latency))
	for i, k := range s.kind {
		scale := ks[int(s.at[i]/window)]
		if !mutates(k) {
			out[i] = s.latency[i] * scale
			continue
		}
		sent := s.began.Add(time.Duration(s.sent[i] * float64(time.Second)))
		done := s.began.Add(time.Duration((s.at[i] + s.latency[i]) * float64(time.Second)))
		// The first flush that ends after the request was sent, and on from there.
		j := sort.Search(len(flushes), func(j int) bool { return flushes[j].end.After(sent) })
		var inFlush time.Duration
		for ; j < len(flushes) && flushes[j].start.Before(done); j++ {
			from, to := flushes[j].start, flushes[j].end
			if from.Before(sent) {
				from = sent
			}
			if to.After(done) {
				to = done
			}
			inFlush += to.Sub(from)
		}
		out[i] = (s.latency[i]-inFlush.Seconds())*scale + flushNominal.Seconds()
	}
	return out
}

// windowScales returns, for each window of a phase, what a time measured in
// it is multiplied by (a rate is divided by it) to read as on the reference
// host: the slow-downs come and go within seconds, so the phase's own median
// sample will not do.
func windowScales(h *hostRef, s *phaseStats) []float64 {
	width := time.Duration(window * float64(time.Second))
	ks := make([]float64, int(maxOf(s.at)/window)+1)
	for w := range ks {
		from := s.began.Add(time.Duration(w) * width)
		ks[w] = h.scale(from, from.Add(width))
	}
	return ks
}

func setupServe(w workload, p params, write bool) (runner, error) {
	r := &serveRunner{
		w: w, p: p, write: write, rate: readRate, mix: readMix,
		reg: registry.New(registry.WithCacheSize(256)), tuner: predict.NewTuner(),
		etags: map[string]string{}, templates: map[string][]byte{},
		expectPredict: map[string]map[float64]float64{},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if write {
		r.rate, r.mix = writeRate, writeMix
		dir, err := os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return nil, err
		}
		r.dataDir = dir
		// pdlserved -data-dir defaults: fsync on, snapshot every 1024 records.
		r.persist, err = registry.OpenPersistence(dir, r.reg, r.tuner, registry.PersistOptions{
			Fsync: true, SnapshotEvery: 1024, Logf: func(string, ...any) {},
		})
		if err != nil {
			return nil, err
		}
	}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	names := servedPlatforms()
	for _, name := range names {
		pl, err := discover.Platform(name)
		if err != nil {
			return nil, err
		}
		doc, err := pdlxml.Marshal(pl)
		if err != nil {
			return nil, err
		}
		if err := r.put(name, doc); err != nil {
			return nil, err
		}
		e, _ := r.reg.Get(name)
		r.etags[name] = e.ETag
		if r.tuner.CheckObservable(e.Platform) != nil {
			continue
		}
		r.observable = append(r.observable, name)
		for _, size := range []float64{1e5, 1e6, 1e7} {
			if err := r.observe(e.Platform, name, size, size/1e10); err != nil {
				return nil, err
			}
		}
		if tmpl, err := putTemplate(pl); err == nil {
			r.templates[name] = tmpl
		}
	}
	if len(r.observable) == 0 {
		return nil, fmt.Errorf("no served platform satisfies a pattern; predict and observe have no target")
	}
	// Platforms share pattern models, so the reference predictions are taken
	// once every platform's observations are in.
	for _, name := range r.observable {
		e, _ := r.reg.Get(name)
		r.expectPredict[name] = map[float64]float64{}
		for _, size := range predictSizes {
			pred, err := r.tuner.Predict(e.Platform, "gemm", size)
			if err != nil {
				return nil, err
			}
			r.expectPredict[name][size] = pred.Seconds
		}
	}
	if write {
		for _, name := range hotPlatforms {
			if r.templates[name] == nil {
				return nil, fmt.Errorf("hot platform %q is not served, observable and rewritable", name)
			}
		}
		r.hot = hotPlatforms
	}

	r.catalog = filterCatalog(names, p.seed)
	r.expectCount = make([]int, len(r.catalog))
	for i, c := range r.catalog {
		vals, err := url.ParseQuery(c.Query)
		if err != nil {
			return nil, err
		}
		f, err := query.ParseFilters(vals)
		if err != nil {
			return nil, fmt.Errorf("catalog filter %q: %w", c.Query, err)
		}
		e, _ := r.reg.Get(c.Platform)
		q, err := f.Apply(e.Query())
		if err != nil {
			return nil, err
		}
		r.expectCount[i] = q.Count()
	}

	var err error
	if r.logFile, err = os.CreateTemp(outDir, "access-*.log"); err != nil {
		return nil, err
	}
	r.srv = server.New(server.Config{Registry: r.reg, Tuner: r.tuner, Persist: r.persist, AccessLog: r.logFile})
	if r.persist != nil {
		// Takes the observer's place from the server's fsync histogram, which
		// no metric here reads.
		r.persist.SetFsyncObserver(func(d time.Duration) {
			end := time.Now()
			r.flushMu.Lock()
			r.flushes = append(r.flushes, flush{end.Add(-d), end})
			r.flushMu.Unlock()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// pdlserved's timeouts.
	r.httpSrv = &http.Server{
		Handler: r.srv.Handler(), ReadTimeout: 10 * time.Second,
		WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute,
	}
	r.served.Add(1)
	go func() {
		defer r.served.Done()
		r.httpSrv.Serve(ln) // returns ErrServerClosed on stop
	}()
	r.base = "http://" + ln.Addr().String()
	r.hc = &http.Client{
		Timeout: 30 * time.Second,
		// serve-write's phase B has closedClients × nproc readers and nproc writers.
		Transport: &http.Transport{MaxIdleConnsPerHost: (closedClients + 1) * p.workers, MaxConnsPerHost: (closedClients + 1) * p.workers},
	}
	ok = true
	return r, nil
}

// put commits a document the way pdlserved's preload does: through the
// journal when there is one.
func (r *serveRunner) put(name string, doc []byte) error {
	prepared, err := r.reg.Prepare(name, doc)
	if err != nil {
		return err
	}
	if r.persist != nil {
		return r.persist.LogPut(name, prepared.XML(), func() { r.reg.CommitPrepared(prepared) })
	}
	r.reg.CommitPrepared(prepared)
	return nil
}

func (r *serveRunner) observe(pl *core.Platform, name string, size, seconds float64) error {
	if r.persist == nil {
		return r.tuner.Observe(pl, "gemm", size, seconds)
	}
	var obsErr error
	err := r.persist.LogObserve(name, "gemm", size, seconds, func() {
		obsErr = r.tuner.Observe(pl, "gemm", size, seconds)
	})
	if err != nil {
		return err
	}
	return obsErr
}

// stop shuts the listener and the journal; it is safe to call twice.
func (r *serveRunner) stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
	if r.httpSrv != nil {
		r.httpSrv.Close()
		r.served.Wait()
	}
	if r.persist != nil {
		r.persist.Close()
	}
	if r.logFile != nil {
		r.logFile.Close()
	}
}

func (r *serveRunner) close() {
	r.stop()
	if r.logFile != nil {
		os.Remove(r.logFile.Name())
	}
	if r.dataDir != "" {
		os.RemoveAll(r.dataDir)
	}
}

// newRequest builds the HTTP request for a generated one.
func (r *serveRunner) newRequest(q request) (*http.Request, error) {
	base := r.base + "/platforms/" + url.PathEscape(q.Platform)
	switch q.Kind {
	case reqQuery:
		u := base + "/pus"
		if f := r.catalog[q.Filter].Query; f != "" {
			u += "?" + f
		}
		return http.NewRequest(http.MethodGet, u, nil)
	case reqPredict:
		// 'f' formatting: 'g' would render 1e+06, whose '+' decodes to a space.
		return http.NewRequest(http.MethodGet, base+"/predict?codelet=gemm&size="+strconv.FormatFloat(q.Size, 'f', -1, 64), nil)
	case reqGetXML:
		req, err := http.NewRequest(http.MethodGet, base, nil)
		if err == nil {
			req.Header.Set("If-None-Match", r.etags[q.Platform])
		}
		return req, err
	case reqPut:
		body := putVariant(r.templates[q.Platform], int(r.variant.Add(1)))
		req, err := http.NewRequest(http.MethodPut, base, bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/xml")
		}
		return req, err
	case reqObserve:
		body := fmt.Sprintf(`{"codelet":"gemm","size":%g,"seconds":%g}`, q.Size, q.Size/1e10)
		req, err := http.NewRequest(http.MethodPost, base+"/observe", bytes.NewReader([]byte(body)))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
	return nil, fmt.Errorf("unknown request kind %d", q.Kind)
}

// check verifies a response against the reference computed at set-up. A
// failed or refused request is an error like any wrong answer.
func (r *serveRunner) check(q request, status int, body []byte) error {
	switch q.Kind {
	case reqQuery:
		if status != http.StatusOK {
			return fmt.Errorf("query %s?%s: status %d", q.Platform, r.catalog[q.Filter].Query, status)
		}
		if got := jsonInt(body, "count"); got != r.expectCount[q.Filter] {
			return fmt.Errorf("query %s?%s: %d PUs, in-process query selects %d",
				q.Platform, r.catalog[q.Filter].Query, got, r.expectCount[q.Filter])
		}
	case reqPredict:
		if status != http.StatusOK {
			return fmt.Errorf("predict %s: status %d", q.Platform, status)
		}
		var out struct{ Seconds float64 }
		if err := json.Unmarshal(body, &out); err != nil || out.Seconds <= 0 {
			return fmt.Errorf("predict %s: bad body %q", q.Platform, body)
		}
		if want := r.expectPredict[q.Platform][q.Size]; !r.write && out.Seconds != want {
			return fmt.Errorf("predict %s size %g: %g s, in-process tuner predicts %g", q.Platform, q.Size, out.Seconds, want)
		}
	case reqGetXML:
		if status != http.StatusNotModified {
			return fmt.Errorf("conditional GET %s: status %d, want 304", q.Platform, status)
		}
	case reqPut:
		if status != http.StatusOK && status != http.StatusCreated {
			return fmt.Errorf("PUT %s: status %d: %s", q.Platform, status, body)
		}
		if !bytes.Contains(body, []byte(`"changed": true`)) {
			return fmt.Errorf("PUT %s: variant did not change the stored document", q.Platform)
		}
	case reqObserve:
		if status != http.StatusAccepted {
			return fmt.Errorf("observe %s: status %d: %s", q.Platform, status, body)
		}
	}
	return nil
}

// jsonInt finds `"key": <int>` in an indented JSON body without decoding
// the rest of it; -1 when absent.
func jsonInt(body []byte, key string) int {
	i := bytes.Index(body, []byte(`"`+key+`": `))
	if i < 0 {
		return -1
	}
	rest := body[i+len(key)+4:]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	n, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return n
}

// do sends one request over HTTP and checks the answer.
func (r *serveRunner) do(q request) error {
	req, err := r.newRequest(q)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	return r.check(q, resp.StatusCode, body)
}

// phaseStats is what one load phase observed. latency, at and kind are
// parallel and hold the verified requests only.
type phaseStats struct {
	began   time.Time
	latency []float64 // seconds from the due time (open loop) or the send (closed loop)
	at      []float64 // the request's due time (open loop) or completion time (closed loop), seconds after began
	sent    []float64 // when it was sent, seconds after began
	kind    []reqKind
	late    []float64 // open loop: seconds the send ran behind its due time, in send order
	backlog []float64 // open loop: requests due but not yet sent at each send, in send order
	elapsed float64
}

func (s *phaseStats) add(latency, at, sent float64, kind reqKind) {
	s.latency = append(s.latency, latency)
	s.at = append(s.at, at)
	s.sent = append(s.sent, sent)
	s.kind = append(s.kind, kind)
}

func (s *phaseStats) merge(o *phaseStats) {
	s.latency = append(s.latency, o.latency...)
	s.at = append(s.at, o.at...)
	s.sent = append(s.sent, o.sent...)
	s.kind = append(s.kind, o.kind...)
}

// ofKind selects the requests whose kind keep accepts.
func (s *phaseStats) ofKind(keep func(reqKind) bool) (at, latency []float64) {
	for i, k := range s.kind {
		if keep(k) {
			at = append(at, s.at[i])
			latency = append(latency, s.latency[i])
		}
	}
	return at, latency
}

// lateness accounts one open-loop send: latency runs from the due time, so
// a late sender's delay is charged to the request, and lateness is reported
// separately.
func lateness(due, sent, done time.Duration) (latency, late time.Duration) {
	late = sent - due
	if late < 0 {
		late = 0
	}
	return done - due, late
}

// timerSlack is how long before a due time a sender stops sleeping and
// starts yielding. time.Sleep in an otherwise idle process wakes through
// epoll, whose timeout is whole milliseconds, so it runs up to 1 ms late.
const timerSlack = 1500 * time.Microsecond

// waitUntil returns at t, within microseconds: it sleeps to timerSlack
// before t and yields the processor in a loop from there, so any runnable
// goroutine (the server's included) runs first and only idle time is spun.
func waitUntil(t time.Time) {
	for {
		wait := time.Until(t)
		switch {
		case wait <= 0:
			return
		case wait > timerSlack:
			time.Sleep(wait - timerSlack)
		default:
			runtime.Gosched()
		}
	}
}

// openLoop sends reqs at their due times over at most conns connections,
// whatever the server's pace: a stall delays the requests behind it and
// their latency, timed from the due time, shows it.
func (r *serveRunner) openLoop(reqs []request, conns int, res *result) phaseStats {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total phaseStats
		wg    sync.WaitGroup
	)
	type sendRec struct {
		idx           int
		late, backlog float64
	}
	var sends []sendRec
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local phaseStats
			var localSends []sendRec
			var errs []error
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				q := reqs[i]
				waitUntil(start.Add(q.Due))
				sent := time.Since(start)
				// Requests due by now that no connection has claimed yet.
				due := sort.Search(len(reqs), func(j int) bool { return reqs[j].Due > sent })
				waiting := due - int(next.Load())
				if waiting < 0 {
					waiting = 0
				}
				err := r.do(q)
				latency, late := lateness(q.Due, sent, time.Since(start))
				localSends = append(localSends, sendRec{i, late.Seconds(), float64(waiting)})
				errs = append(errs, err)
				if err == nil {
					local.add(latency.Seconds(), q.Due.Seconds(), sent.Seconds(), q.Kind)
				}
			}
			mu.Lock()
			total.merge(&local)
			sends = append(sends, localSends...)
			for _, err := range errs {
				res.op(err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.began, total.elapsed = start, time.Since(start).Seconds()
	sort.Slice(sends, func(i, j int) bool { return sends[i].idx < sends[j].idx })
	for _, s := range sends {
		total.late = append(total.late, s.late)
		total.backlog = append(total.backlog, s.backlog)
	}
	return total
}

// closedLoop runs clients that each send their next request when the
// previous one completes, for d or until limit requests (0 = no limit).
func (r *serveRunner) closedLoop(reqs []request, clients int, d time.Duration, limit int, res *result) phaseStats {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total phaseStats
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local phaseStats
			var errs []error
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					break
				}
				q := reqs[i%len(reqs)]
				t0 := time.Now()
				err := r.do(q)
				errs = append(errs, err)
				if err == nil {
					local.add(time.Since(t0).Seconds(), time.Since(start).Seconds(), t0.Sub(start).Seconds(), q.Kind)
				}
			}
			mu.Lock()
			total.merge(&local)
			for _, err := range errs {
				res.op(err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.began, total.elapsed = start, time.Since(start).Seconds()
	return total
}

// openRequests generates an open-loop phase: rate × seconds requests of the
// workload's mix with Poisson due times.
func (r *serveRunner) openRequests(rate, seconds float64, seedOffset int64) []request {
	n := int(rate * seconds)
	if r.p.smoke {
		n = 150
	}
	reqs := genRequests(r.p.seed+seedOffset, r.mix, n, r.catalog, r.observable, r.hot)
	for i, due := range poissonSchedule(r.p.seed+seedOffset+1, rate, n) {
		reqs[i].Due = due
	}
	return reqs
}

// only keeps the requests (and their due times) for which keep is true.
func only(reqs []request, keep func(reqKind) bool) []request {
	var out []request
	for _, q := range reqs {
		if keep(q.Kind) {
			out = append(out, q)
		}
	}
	return out
}

func isQuery(k reqKind) bool { return k == reqQuery }
func mutates(k reqKind) bool { return k == reqPut || k == reqObserve }

// capacity is phase B: how many requests per second the server completes
// when it always has one waiting. serve-read: closedClients × nproc clients
// over the mix. serve-write: the same clients send the queries of the mix
// while its mutations arrive on a schedule of their own, at writeRateB,
// because a closed loop that waits for every fsync measures the disk: its
// rate followed the host's fsync latency (0.26-1.5 ms within ten minutes)
// from 1 500 to 4 800 requests/s.
func (r *serveRunner) capacity(d time.Duration, res *result) phaseStats {
	reqs := genRequests(r.p.seed+2, r.mix, 1<<15, r.catalog, r.observable, r.hot)
	limit := 0
	if r.p.smoke {
		limit = 50
	}
	clients := closedClients * r.p.workers
	if !r.write {
		return r.closedLoop(reqs, clients, d, limit, res)
	}
	writes := only(r.openRequests(writeRateB/mutatingShare, d.Seconds(), 20), mutates)
	var written phaseStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		written = r.openLoop(writes, r.p.workers, res)
	}()
	b := r.closedLoop(only(reqs, isQuery), clients, d, limit, res)
	wg.Wait()
	b.merge(&written)
	return b
}

func (r *serveRunner) measure(d time.Duration, res *result) {
	open := r.openRequests(r.rate, d.Seconds()*openLoopShare, 0)
	// serve-write's 150 requests a second leave the CPUs idle between
	// requests; serve-read's 1 000 do not, and there the spinners only
	// disturbed the host reference (awake.go).
	stopSpinners := func() {}
	if r.write {
		var err error
		if stopSpinners, err = keepAwake(r.p.workers); err != nil {
			res.op(err)
			return
		}
	}
	stopRef := res.ref.during()
	a := r.openLoop(open, r.p.workers, res)
	b := r.capacity(time.Duration(float64(d)*(1-openLoopShare)), res)
	stopRef()
	stopSpinners()
	// The median request is the CPU's, so it is scaled: between ten runs
	// serve-read's median spread 0.09-0.10 as timed and 0.03-0.04 scaled.
	// serve-write's latencies are adjusted for the device as well, and half of
	// its mix is cached queries, so the median of all requests sits on the edge
	// between two modes and jumps between them; the median mutating request is
	// the one that workload is about.
	ka := windowScales(&res.ref, &a)
	var typical, tailOf []float64
	if r.write {
		tailOf = r.deviceAdjusted(&a, ka)
		for i, k := range a.kind {
			if mutates(k) {
				typical = append(typical, tailOf[i])
			}
		}
	} else {
		// serve-read's p99 is reported as timed: so far out a request waits
		// for wake-ups and stalls, not for the CPU, and scaling it only added
		// the reference's own noise (steps between sets of 18 % against 5 %).
		tailOf = a.latency
		for i, v := range a.latency {
			typical = append(typical, v*ka[int(a.at[i]/window)])
		}
	}
	// Whole-machine stalls of 50-200 ms come a few times a minute on a shared
	// host, and slow stretches of seconds more often; either would own a
	// whole-phase p99 or request count. So the tail and the rate are taken
	// per window and one window is reported: a stall spoils a window, not
	// the run. For the tail it is the first-quartile window, what the server
	// does while the host leaves it alone, because every disturbance lands
	// in the tail: between runs it spread half as wide as the median window
	// on serve-write (0.14 against 0.27) and the same on serve-read. The
	// rate of phase B is the CPU's: each window's is scaled by the reference
	// samples taken inside it, and the median window is reported.
	tails := perWindow(a.at, tailOf, func(_ int, v []float64) float64 { return percentile(v, r.w.tailP) })
	if len(tails) == 0 { // smoke: the phase is shorter than a window
		tails = []float64{percentile(tailOf, r.w.tailP)}
	}
	kb := windowScales(&res.ref, &b)
	rates := perWindow(b.at, b.latency, func(w int, v []float64) float64 { return float64(len(v)) / window / kb[w] })
	if len(rates) == 0 { // smoke: the phase is shorter than a window
		rates = []float64{float64(len(b.latency)) / b.elapsed}
	}
	res.timing("latency_p50_ms", typical, 1e3)
	res.timing("latency_tail_ms", tails, 1e3)
	res.set("latency_tail_ms", res.samples["latency_tail_ms"].Q1)
	res.timing("throughput_per_s", rates, 1)
	res.note("open loop: %d requests at %.0f/s over %d connections; generator late p50 %.0f µs, p99 %.0f µs, max %.2f ms",
		len(open), r.rate, r.p.workers, percentile(a.late, 0.5)*1e6, percentile(a.late, 0.99)*1e6, maxOf(a.late)*1e3)
	res.note("open loop latency from due time, whole phase: p50 %.3f, p75 %.3f, p90 %.3f, p95 %.3f, p99 %.3f ms",
		percentile(a.latency, 0.5)*1e3, percentile(a.latency, 0.75)*1e3, percentile(a.latency, 0.9)*1e3,
		percentile(a.latency, 0.95)*1e3, percentile(a.latency, 0.99)*1e3)
	_, written := b.ofKind(mutates)
	res.note("capacity: %d closed-loop clients, %d requests in %.2f s (%d of them mutations)",
		closedClients*r.p.workers, len(b.latency), b.elapsed, len(written))
	if r.write {
		res.op(r.verifyRecovery(nil))
	}
}

// window is the length, in seconds, of the per-window estimators.
const window = 0.5

// perWindow groups values by the window their time falls in and applies f
// to each full window (its index and values); the last, partial window is
// dropped.
func perWindow(at, values []float64, f func(int, []float64) float64) []float64 {
	full := int(maxOf(at) / window)
	windows := make([][]float64, full)
	for i, t := range at {
		if w := int(t / window); w < full {
			windows[w] = append(windows[w], values[i])
		}
	}
	out := make([]float64, 0, full)
	for i, w := range windows {
		if len(w) > 0 {
			out = append(out, f(i, w))
		}
	}
	return out
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// verifyRecovery stops the server, reopens its data directory into a fresh
// store and checks that what recovery rebuilds is what was committed. When
// recoverMs is non-nil it receives the time OpenPersistence took.
func (r *serveRunner) verifyRecovery(recoverMs *float64) error {
	wantPerf, err := r.tuner.SnapshotPerf()
	if err != nil {
		return err
	}
	r.stop()
	reg, tuner := registry.New(), predict.NewTuner()
	t0 := time.Now()
	p, err := registry.OpenPersistence(r.dataDir, reg, tuner, registry.PersistOptions{
		Fsync: true, SnapshotEvery: 1024, Logf: func(string, ...any) {},
	})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", r.dataDir, err)
	}
	if recoverMs != nil {
		*recoverMs = time.Since(t0).Seconds() * 1e3
	}
	defer p.Close()
	if reg.Len() != r.reg.Len() {
		return fmt.Errorf("recovered %d platforms, %d were committed", reg.Len(), r.reg.Len())
	}
	for _, want := range r.reg.List() {
		got, ok := reg.Get(want.Name)
		if !ok || got.ETag != want.ETag || !bytes.Equal(got.XML, want.XML) {
			return fmt.Errorf("recovered %s differs from the committed document", want.Name)
		}
	}
	gotPerf, err := tuner.SnapshotPerf()
	if err != nil {
		return err
	}
	if !bytes.Equal(gotPerf, wantPerf) {
		return fmt.Errorf("recovered performance models differ from the committed ones")
	}
	return nil
}

// fsType names the filesystem under dir, for the fingerprint: fsync cost
// is the filesystem's.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, bestLen := "unknown", -1
	for _, line := range bytes.Split(data, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := string(f[1])
		if (abs == mp || mp == "/" || (len(abs) > len(mp) && abs[:len(mp)] == mp && abs[len(mp)] == '/')) && len(mp) > bestLen {
			best, bestLen = string(f[2]), len(mp)
		}
	}
	return best
}
