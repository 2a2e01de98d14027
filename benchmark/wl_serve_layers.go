package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pdlxml"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/schema"
)

// The traced pass of the serve workloads: a shorter open-loop phase over
// HTTP for the counters the server itself keeps, then the same generated
// requests replayed in process — through the server's handler, and composed
// by hand from the layer calls the handler makes, with a span around each.

func (r *serveRunner) layers(d time.Duration, sp *spanRecorder, res *result) {
	cacheBefore := r.reg.CacheStats()
	bucketsBefore, _ := r.scrapeBuckets()
	var snapsBefore uint64
	if r.persist != nil {
		snapsBefore = r.persist.Stats().Snapshots
	}
	open := r.openRequests(r.rate, d.Seconds()*0.35, 10)
	a := r.openLoop(open, r.p.workers, res)
	cacheAfter := r.reg.CacheStats()
	bucketsAfter, renderSeconds := r.scrapeBuckets()

	if lookups := (cacheAfter.Hits - cacheBefore.Hits) + (cacheAfter.Misses - cacheBefore.Misses); lookups > 0 {
		res.set("registry.cache_hit_ratio", float64(cacheAfter.Hits-cacheBefore.Hits)/float64(lookups))
	}
	res.set("server.req_p99_ms", bucketQuantile(bucketsBefore, bucketsAfter, 0.99)*1e3)
	res.set("server.metrics_render_us", renderSeconds*1e6)
	res.set("serve.gen_late_p50_us", percentile(a.late, 0.5)*1e6)
	res.set("serve.gen_late_p99_us", percentile(a.late, 0.99)*1e6)
	res.set("serve.gen_late_max_ms", maxOf(a.late)*1e3)
	half := len(a.backlog) / 2
	res.set("serve.backlog_growth", mean(a.backlog[half:])-mean(a.backlog[:half]))
	res.set("serve.open_p99_ms", percentile(a.latency, 0.99)*1e3)
	if r.persist != nil {
		res.set("registry.snapshots", float64(r.persist.Stats().Snapshots-snapsBefore))
	}

	n := len(open)
	if n > layerReplayMax {
		n = layerReplayMax
	}
	handler := r.replay(open[:n], sp, d/2, res)
	for k, name := range reqKindNames {
		if len(handler[k]) > 0 {
			res.timing("server.handler_"+name+"_us", handler[k], 1e6)
		}
	}
	layer := sp.byName()
	us := func(name string) float64 { return layer[name].medianMicros(false) }
	res.set("query.parse_filters_ns", us("query.ParseFilters")*1e3)
	res.set("registry.query_hit_ns", us("registry.Query:hit")*1e3)
	res.set("registry.query_miss_us", us("registry.Query:miss"))
	res.set("predict.predict_us", us("predict.Predict"))
	res.set("predict.observe_us", us("predict.Observe"))
	res.set("pdlxml.unmarshal_us", us("pdlxml.Unmarshal"))
	res.set("pdlxml.marshal_us", us("pdlxml.Marshal"))
	res.set("schema.validate_us", us("schema.ValidatePlatform"))
	res.set("registry.prepare_us", us("registry.Prepare"))
	res.set("registry.commit_us", us("registry.CommitPrepared"))
	res.set("registry.log_put_us", layer["registry.LogPut"].medianMicros(true))
	res.set("registry.log_observe_us", layer["registry.LogObserve"].medianMicros(true))
	// What the handler spends outside the layer calls composed by hand:
	// routing, middleware, access log, body read, JSON encoding of the reply.
	if v, ok := res.values["server.handler_query_us"]; ok {
		res.set("server.handler_self_query_us", v-us("hand:query")+us("json.Encode:query"))
		_, queries := a.ofKind(isQuery)
		res.set("server.transport_us", percentile(queries, 0.5)*1e6-v)
	}
	if v, ok := res.values["server.handler_put_us"]; ok {
		res.set("server.handler_self_put_us", v-us("hand:put")+us("diagnostic:put")+us("json.Encode:put"))
		if v > 0 {
			res.note("PUT handler: pdlxml+schema+registry prepare/commit/journal are %.0f%% of server.handler_put_us",
				100*(us("registry.Prepare")+us("registry.LogPut"))/v)
		}
	}
	if v, ok := res.values["server.handler_observe_us"]; ok && v > 0 {
		res.note("observe handler: journal+model update are %.0f%% of server.handler_observe_us",
			100*us("registry.LogObserve")/v)
	}

	r.probeQuery(res)
	if r.write {
		var recoverMs float64
		res.op(r.verifyRecovery(&recoverMs))
		res.set("registry.recover_ms", recoverMs)
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// serverSide turns a generated request into the form a handler receives.
func (r *serveRunner) serverSide(q request) (*http.Request, error) {
	req, err := r.newRequest(q)
	if err != nil {
		return nil, err
	}
	var body io.Reader
	if req.Body != nil {
		body = req.Body
	}
	in := httptest.NewRequest(req.Method, req.URL.String(), body)
	in.Header = req.Header
	return in, nil
}

// replay performs the requests in process, no sockets: the even ones
// through the server's handler, the odd ones as the handler does it, one
// layer call at a time, each inside a span. (The same request through both
// would make the second a cache hit.) It returns the handler's seconds per
// call by route.
func (r *serveRunner) replay(reqs []request, sp *spanRecorder, budget time.Duration, res *result) [len(reqKindNames)][]float64 {
	var out [len(reqKindNames)][]float64
	h := r.srv.Handler()
	deadline := time.Now().Add(budget)
	for i, q := range reqs {
		if i >= 100 && time.Now().After(deadline) {
			break
		}
		if i%2 == 1 {
			res.op(r.byHand(q, sp, i))
			continue
		}
		in, err := r.serverSide(q)
		if err != nil {
			res.op(err)
			continue
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, in)
		sec := time.Since(t0).Seconds()
		err = r.check(q, rec.Code, rec.Body.Bytes())
		res.op(err)
		if err == nil {
			out[q.Kind] = append(out[q.Kind], sec)
		}
	}
	return out
}

func (r *serveRunner) byHand(q request, sp *spanRecorder, op int) error {
	top := sp.begin(op, "hand:"+q.Kind.String(), -1)
	defer sp.end(top)
	encode := func(v any) {
		sp.timed(op, "json.Encode:"+q.Kind.String(), top, func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			enc.Encode(v)
		})
	}
	e, ok := r.reg.Get(q.Platform)
	if !ok {
		return fmt.Errorf("by hand: unknown platform %s", q.Platform)
	}
	switch q.Kind {
	case reqQuery:
		vals, err := url.ParseQuery(r.catalog[q.Filter].Query)
		if err != nil {
			return err
		}
		var f *query.Filters
		sp.timed(op, "query.ParseFilters", top, func() { f, err = query.ParseFilters(vals) })
		if err != nil {
			return err
		}
		var (
			views  []registry.PUView
			cached bool
		)
		idx := sp.begin(op, "registry.Query", top)
		views, cached, err = r.reg.Query(q.Platform, f)
		sp.end(idx)
		if cached {
			sp.rename(idx, "registry.Query:hit")
		} else {
			sp.rename(idx, "registry.Query:miss")
		}
		if err != nil {
			return err
		}
		if len(views) != r.expectCount[q.Filter] {
			return fmt.Errorf("by hand: query selects %d PUs, want %d", len(views), r.expectCount[q.Filter])
		}
		encode(map[string]any{"platform": q.Platform, "query": f.CacheKey(), "count": len(views), "pus": views})
	case reqPredict:
		var err error
		sp.timed(op, "predict.Predict", top, func() { _, err = r.tuner.Predict(e.Platform, "gemm", q.Size) })
		if err != nil {
			return err
		}
		encode(map[string]any{"codelet": "gemm", "seconds": 0.0})
	case reqGetXML:
		sp.timed(op, "registry.Get", top, func() { r.reg.Get(q.Platform) })
	case reqPut:
		body := putVariant(r.templates[q.Platform], int(r.variant.Add(1)))
		// The three calls Prepare is made of, timed on their own; their
		// results are dropped and Prepare does the work again.
		diag := sp.begin(op, "diagnostic:put", top)
		var (
			pl  *core.Platform
			err error
		)
		sp.timed(op, "pdlxml.Unmarshal", diag, func() { pl, err = pdlxml.Unmarshal(body) })
		if err == nil {
			sp.timed(op, "schema.ValidatePlatform", diag, func() { schema.ValidatePlatform(pl, schema.Default()) })
			sp.timed(op, "pdlxml.Marshal", diag, func() { _, err = pdlxml.Marshal(pl) })
		}
		sp.end(diag)
		if err != nil {
			return err
		}
		var prepared *registry.Prepared
		sp.timed(op, "registry.Prepare", top, func() { prepared, err = r.reg.Prepare(q.Platform, body) })
		if err != nil {
			return err
		}
		log := sp.begin(op, "registry.LogPut", top)
		commit := func() {
			sp.timed(op, "registry.CommitPrepared", log, func() { r.reg.CommitPrepared(prepared) })
		}
		if r.persist != nil {
			err = r.persist.LogPut(q.Platform, prepared.XML(), commit)
		} else {
			commit()
		}
		sp.end(log)
		if err != nil {
			return err
		}
		encode(map[string]any{"changed": true})
	case reqObserve:
		var err error
		sp.timed(op, "predict.CheckObservable", top, func() { err = r.tuner.CheckObservable(e.Platform) })
		if err != nil {
			return err
		}
		log := sp.begin(op, "registry.LogObserve", top)
		var obsErr error
		apply := func() {
			sp.timed(op, "predict.Observe", log, func() {
				obsErr = r.tuner.Observe(e.Platform, "gemm", q.Size, q.Size/1e10)
			})
		}
		if r.persist != nil {
			err = r.persist.LogObserve(q.Platform, "gemm", q.Size, q.Size/1e10, apply)
		} else {
			apply()
		}
		sp.end(log)
		if err == nil {
			err = obsErr
		}
		if err != nil {
			return err
		}
		encode(map[string]any{"recorded": true})
	}
	return nil
}

// probeQuery times the query layer under the registry cache: compiling a
// flat filter set onto a platform's query root, and a selector expression.
func (r *serveRunner) probeQuery(res *result) {
	e, ok := r.reg.Get("xeon-2gpu")
	if !ok {
		return
	}
	f, err := query.ParseFilters(url.Values{"kind": {"worker"}, "arch": {"gpu"}})
	if err != nil {
		res.op(err)
		return
	}
	var apply, sel []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		_, err := f.Apply(e.Query())
		apply = append(apply, time.Since(t0).Seconds())
		res.op(err)
		t0 = time.Now()
		_, err = e.Query().Select("//Worker[ARCHITECTURE=gpu]")
		sel = append(sel, time.Since(t0).Seconds())
		res.op(err)
	}
	res.timing("query.apply_us", apply, 1e6)
	res.timing("query.select_us", sel, 1e6)
	var docs []float64
	for _, ent := range r.reg.List() {
		docs = append(docs, float64(len(ent.XML)))
	}
	res.set("pdlxml.doc_bytes", median(docs))
	if r.persist != nil {
		if st := r.persist.Stats(); st.JournalRecs > 0 {
			res.set("registry.journal_bytes_per_op", float64(st.JournalBytes)/float64(st.JournalRecs))
		}
	}
}

// scrapeBuckets renders GET /metrics in process and returns the cumulative
// pdlserved_request_seconds bucket counts by upper bound, with the seconds
// the render took.
func (r *serveRunner) scrapeBuckets() (map[string]float64, float64) {
	rec := httptest.NewRecorder()
	t0 := time.Now()
	r.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	render := time.Since(t0).Seconds()
	buckets := map[string]float64{}
	fams, err := metrics.ParsePromText(rec.Body)
	if err != nil {
		return buckets, render
	}
	for _, f := range fams {
		if f.Name != "pdlserved_request_seconds" {
			continue
		}
		for _, s := range f.Samples {
			if s.Name != "pdlserved_request_seconds_bucket" {
				continue
			}
			if labels, err := metrics.ParseLabels(s.Labels); err == nil {
				buckets[labels["le"]] = s.Value
			}
		}
	}
	return buckets, render
}

// bucketQuantile interpolates a quantile from the difference of two
// cumulative histogram scrapes; a rank in the +Inf bucket reports the
// largest finite bound.
func bucketQuantile(before, after map[string]float64, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var finite []bucket
	total := after["+Inf"] - before["+Inf"]
	for le, cum := range after {
		if ub, err := strconv.ParseFloat(le, 64); err == nil && le != "+Inf" {
			finite = append(finite, bucket{ub, cum - before[le]})
		}
	}
	if total <= 0 || len(finite) == 0 {
		return 0
	}
	sort.Slice(finite, func(i, j int) bool { return finite[i].le < finite[j].le })
	rank := q * total
	lo, below := 0.0, 0.0
	for _, b := range finite {
		if b.cum >= rank && b.cum > below {
			return lo + (rank-below)/(b.cum-below)*(b.le-lo)
		}
		lo, below = b.le, b.cum
	}
	return finite[len(finite)-1].le
}
