package server

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/blas"
	"repro/internal/metrics"
	"repro/internal/registry"
)

// pdl_build_info describes the running binary on every /metrics scrape of
// metrics.Default: value 1, labelled with the Go version, the VCS revision it
// was built from ("unknown" when the build recorded none) and the register
// tile its BLAS kernels run on. pdlserved and pdlworkerd both link this
// package, so both serve it.
func init() {
	metrics.Default.GaugeVec("pdl_build_info",
		"Build of this binary and the BLAS register tile it selected; always 1.",
		"go_version", "vcs_revision", "kernel_isa", "kernel_vector_bits", "kernel_tile").
		With(buildLabels()...).Set(1)
}

// buildLabels are pdl_build_info's label values, in its label order.
func buildLabels() []string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return []string{runtime.Version(), rev, blas.KernelISA(), strconv.Itoa(blas.KernelVectorBits()), blas.KernelTile()}
}

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram, chosen for an in-memory service: sub-millisecond cache hits up
// to second-scale uploads.
var latencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// serverMetrics instruments the HTTP layer on the shared internal/metrics
// substrate. Each Server owns its own registry (so tests can spin up many
// servers without family-name collisions); /metrics renders it followed by
// metrics.Default, where the task runtime registers its taskrt_* families —
// one scrape covers the service and any in-process runtime activity.
type serverMetrics struct {
	reg              *metrics.Registry
	requests         *metrics.CounterVec // method, route pattern, status code
	latency          *metrics.Histogram
	inflight         *metrics.Gauge
	rateLimited      *metrics.Counter
	bodyTooBig       *metrics.Counter
	readOnlyRejected *metrics.Counter

	fleetScrapes    *metrics.CounterVec // node
	fleetScrapeErrs *metrics.CounterVec // node
	fleetLastScrape *metrics.Gauge      // unix seconds of last completed sweep
}

func newMetrics() *serverMetrics {
	reg := metrics.New()
	return &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("pdlserved_requests_total",
			"Requests served, by method, route pattern and status code.",
			"method", "route", "code"),
		latency: reg.Histogram("pdlserved_request_seconds",
			"Request latency histogram.", latencyBuckets),
		inflight: reg.Gauge("pdlserved_inflight_requests",
			"Requests currently being served."),
		rateLimited: reg.Counter("pdlserved_ratelimited_total",
			"Requests rejected by the per-client rate limiter."),
		bodyTooBig: reg.Counter("pdlserved_body_too_large_total",
			"Uploads rejected for exceeding the body limit."),
		readOnlyRejected: reg.Counter("pdlserved_readonly_rejected_total",
			"Mutations rejected because the durability layer is read-only."),
		fleetScrapes: reg.CounterVec("pdlserved_fleet_scrapes_total",
			"Successful worker /metrics scrapes, by node.", "node"),
		fleetScrapeErrs: reg.CounterVec("pdlserved_fleet_scrape_errors_total",
			"Failed worker /metrics scrapes, by node.", "node"),
		fleetLastScrape: reg.Gauge("pdlserved_fleet_last_scrape_unix",
			"Unix time of the last completed federation sweep (0 before the first)."),
	}
}

func (m *serverMetrics) observe(method, route string, code int, dur time.Duration) {
	m.requests.With(method, route, strconv.Itoa(code)).Inc()
	m.latency.Observe(dur.Seconds())
}

// registerGauges wires the render-time gauges over registry/cache state.
// Called once from New, after the Server's dependencies exist.
func (m *serverMetrics) registerGauges(s *Server) {
	m.reg.GaugeFunc("pdlserved_store_version",
		"Registry store version (committed changes).",
		func() float64 { return float64(s.reg.Version()) })
	m.reg.GaugeFunc("pdlserved_platforms",
		"Platforms currently stored.",
		func() float64 { return float64(s.reg.Len()) })
	m.reg.CounterFunc("pdlserved_query_cache_hits_total",
		"Query-cache hits.",
		func() float64 { return float64(s.reg.CacheStats().Hits) })
	m.reg.CounterFunc("pdlserved_query_cache_misses_total",
		"Query-cache misses.",
		func() float64 { return float64(s.reg.CacheStats().Misses) })
	m.reg.GaugeFunc("pdlserved_query_cache_entries",
		"Live query-cache entries.",
		func() float64 { return float64(s.reg.CacheStats().Entries) })
	m.reg.GaugeFunc("pdlserved_query_cache_hit_ratio",
		"Hits over lookups since start.",
		func() float64 { return s.reg.CacheStats().HitRatio() })
	m.reg.GaugeFunc("pdlserved_workers",
		"Cluster workers holding an active lease.",
		func() float64 { return float64(s.workers.len()) })
	m.reg.GaugeFunc("pdlserved_fleet_nodes",
		"Worker nodes represented in the federated taskrt_fleet_* export.",
		func() float64 { return float64(len(s.fleet.Nodes())) })
	m.reg.GaugeFunc("pdlserved_draining",
		"1 after BeginDrain: worker leases are being refused ahead of shutdown.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})
}

// fsyncBuckets span commodity-SSD fsync latencies (tens of µs) up to a
// spinning disk or overloaded volume (hundreds of ms).
var fsyncBuckets = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5}

// registerWAL wires the pdlserved_wal_* families over the durability
// layer: append/replay/compaction counters, journal size and image age
// gauges, the read-only flag, and an fsync latency histogram fed by the
// journal's commit path.
func (m *serverMetrics) registerWAL(p *registry.Persistence) {
	m.reg.CounterFunc("pdlserved_wal_appends_total",
		"Journal records appended (committed mutations).",
		func() float64 { return float64(p.Stats().Appends) })
	m.reg.CounterFunc("pdlserved_wal_append_errors_total",
		"Journal append or fsync failures (each flips read-only mode).",
		func() float64 { return float64(p.Stats().AppendErrors) })
	m.reg.CounterFunc("pdlserved_wal_replayed_records_total",
		"Journal records replayed during the last recovery.",
		func() float64 { return float64(p.Stats().Replayed) })
	m.reg.CounterFunc("pdlserved_wal_torn_tails_total",
		"Torn journal tails discarded during recovery.",
		func() float64 { return float64(p.Stats().TornTails) })
	m.reg.CounterFunc("pdlserved_wal_skipped_records_total",
		"Journal records that could not be re-applied during replay.",
		func() float64 { return float64(p.Stats().SkippedRecs) })
	m.reg.CounterFunc("pdlserved_wal_snapshots_total",
		"Compactions (new journals that begin with a store image) written by this process.",
		func() float64 { return float64(p.Stats().Snapshots) })
	m.reg.GaugeFunc("pdlserved_wal_journal_bytes",
		"Size of the active journal in bytes.",
		func() float64 { return float64(p.Stats().JournalBytes) })
	m.reg.GaugeFunc("pdlserved_wal_journal_records",
		"Records in the active journal (replay cost of a restart now).",
		func() float64 { return float64(p.Stats().JournalRecs) })
	m.reg.GaugeFunc("pdlserved_wal_snapshot_age_seconds",
		"Seconds since the newest store image was written (-1 before the first).",
		func() float64 {
			at := p.Stats().SnapshotAt
			if at.IsZero() {
				return -1
			}
			return time.Since(at).Seconds()
		})
	m.reg.GaugeFunc("pdlserved_wal_read_only",
		"1 when the store has degraded to read-only after a journal failure.",
		func() float64 {
			if p.ReadOnly() {
				return 1
			}
			return 0
		})
	fsync := m.reg.Histogram("pdlserved_wal_fsync_seconds",
		"Journal fsync latency per committed mutation.", fsyncBuckets)
	p.SetFsyncObserver(func(d time.Duration) { fsync.Observe(d.Seconds()) })
}
