// Command pdlworkerd is a cluster execution node: it serves the cluster
// worker protocol (POST /v1/execute — one long-lived request/response stream
// per master — GET /v1/info, GET /v1/trace, GET /healthz, GET /metrics) over
// the codelets in the shared cluster registry, and announces itself to a
// pdlserved instance — registering its PDL platform description, taking a
// worker lease, heartbeating it, and streaming execution observations into
// the server's perfmodels — so masters can discover execution nodes through
// the same registry that holds the platform descriptions they execute
// against.
//
// Usage:
//
//	pdlworkerd -addr 127.0.0.1:9091 -name worker-a
//	pdlworkerd -addr :9091 -server http://registry:8080 -platform xeon-gtx480
//	pdlworkerd -addr :9091 -slots 4 -trace worker-a.trace.jsonl
//	pdlworkerd -addr :9091 -pprof -fault-delay 50ms
//
// Without -server the daemon runs standalone (masters address it directly).
// With it, the lease's lifetime is the registry's to set: the daemon
// heartbeats at a third of the ttl_seconds its registration is answered with.
//
// Observability: kernel execution spans are always recorded, stamped with
// the node name and wall-clock epoch — masters collect them piggybacked on
// execute responses (or via GET /v1/trace) and merge them into one cluster
// timeline; -trace additionally writes them as pdltrace JSONL on shutdown.
// GET /metrics exposes the node's taskrt_worker_* families (kernel latency
// histograms, cache occupancy, inflight kernels) for pdlserved's fleet
// federation, GET /healthz reports cache and slot detail, and -pprof
// mounts net/http/pprof under /debug/pprof/. -fault-delay injects an
// artificial per-kernel slowdown — the gray failure used to exercise the
// master's straggler detector end to end.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/pdlxml"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pdlworkerd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pdlworkerd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:9091", "listen address for the worker protocol")
		name      = fs.String("name", "", "node name (default: host name)")
		serverURL = fs.String("server", "", "pdlserved base URL to register with ('' = standalone)")
		platName  = fs.String("platform", "", "platform: a catalog name, a .pdl.xml path, or '' to probe the host")
		slots     = fs.Int("slots", 0, "concurrent executions (0 = probed host cores)")
		archsCSV  = fs.String("archs", "", "comma-separated executable architecture tags (default: probed host arch)")
		advertise = fs.String("advertise", "", "base URL masters should use to reach this node (default http://<addr>)")
		traceTo   = fs.String("trace", "", "write the node's execution trace as pdltrace JSONL here on exit")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the worker listener")
		slowBy    = fs.Duration("fault-delay", 0, "inject this extra latency into every kernel (straggler/gray-failure injection)")
		traceCap  = fs.Int("trace-cap", 0, "max buffered execution spans before oldest-drop (0 = default cap, <0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	host := discover.ProbeHost()
	if *name == "" {
		h, err := os.Hostname()
		if err != nil || h == "" {
			h = "pdlworker"
		}
		*name = h
	}
	if *slots <= 0 {
		*slots = host.Cores
	}
	archs := []string{host.Arch}
	if *archsCSV != "" {
		archs = archs[:0]
		for _, a := range strings.Split(*archsCSV, ",") {
			if a = strings.TrimSpace(a); a != "" {
				archs = append(archs, a)
			}
		}
	}

	// Resolve the node's platform description: catalog entry, XML file, or
	// a probe of the running host.
	pl, err := loadPlatform(*platName, *name, &host)
	if err != nil {
		return err
	}

	// Spans are always recorded: the master drains them over the protocol
	// to build the merged cluster timeline whether or not this node also
	// writes a JSONL file on exit.
	tr := trace.New()

	if *slowBy > 0 {
		log.Printf("pdlworkerd: injecting %s of extra latency into every kernel (straggler injection)", *slowBy)
	}

	var observe func(codelet, arch string, size, seconds float64)
	var observer *asyncObserver
	var ctl *client.Client
	if *serverURL != "" {
		if ctl, err = client.New(*serverURL); err != nil {
			return err
		}
		// Stream observations into the server's perfmodel for this platform
		// through a bounded async queue: a registry outage must never stall
		// an execution slot, so samples are shed (and counted) instead of
		// blocking once the backlog fills.
		observer = newAsyncObserver(ctl, "/platforms/"+pl.Name+"/observe")
		observe = observer.Observe
	}

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:          *name,
		Codelets:      experiments.ClusterCodelets(),
		Archs:         archs,
		Slots:         *slots,
		OnObservation: observe,
		Trace:         tr,
		TraceCap:      *traceCap,
		Delay:         *slowBy,
		Logf:          log.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *advertise == "" {
		*advertise = "http://" + advertiseHost(ln.Addr().String())
	}
	handler := w.Handler()
	if *pprofOn {
		handler = metrics.WithPprof(handler)
	}
	httpSrv := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		info := w.Info()
		log.Printf("pdlworkerd: node %s listening on %s (archs %v, %d slots, codelets %v)",
			*name, ln.Addr(), info.Archs, info.Workers, info.Codelets)
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	if ctl != nil {
		go registerLoop(ctx, ctl, pl, w, *advertise)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("pdlworkerd: shutting down")
	// Drop the lease eagerly (best-effort — expiry would reap it anyway),
	// end the execute streams once their in-flight kernels have answered (a
	// stream never goes idle, so Shutdown alone would wait out its whole
	// grace period), then stop the listener.
	if ctl != nil {
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := ctl.Delete(dctx, "/workers/"+*name); err != nil && !client.IsStatus(err, http.StatusNotFound) {
			log.Printf("pdlworkerd: deregistering: %v", err)
		}
		cancel()
	}
	w.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("pdlworkerd: shutdown: %v", err)
	}
	if observer != nil {
		if left := observer.Close(5 * time.Second); left > 0 {
			log.Printf("pdlworkerd: %d observations unsent at shutdown", left)
		}
		if d := observer.Dropped(); d > 0 {
			log.Printf("pdlworkerd: %d observations dropped (queue full) this run", d)
		}
	}
	if *traceTo != "" {
		if err := tr.WriteFile(*traceTo, trace.FormatJSONL); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		log.Printf("pdlworkerd: wrote %s (%d events)", *traceTo, tr.Len())
	}
	return nil
}

// loadPlatform resolves -platform: an existing file path is parsed as PDL
// XML, a known catalog name builds that platform, and the empty string
// probes the running host, under the node's name so that each worker's
// document registers distinctly.
func loadPlatform(spec, nodeName string, host *discover.HostInfo) (*core.Platform, error) {
	if spec == "" {
		return discover.Generate(discover.Options{Name: nodeName, Host: host})
	}
	if _, statErr := os.Stat(spec); statErr == nil {
		pl, err := pdlxml.ReadFile(spec)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", spec, err)
		}
		return pl, nil
	}
	pl, err := discover.Platform(spec)
	if err != nil {
		return nil, fmt.Errorf("unknown platform %q (not a file, not in catalog: %v)", spec, err)
	}
	return pl, nil
}

// registerLoop keeps the node registered: upload the platform document,
// take the worker lease, then heartbeat at a third of the TTL the registry
// answered the registration with (ttl_seconds), re-registering whenever the
// server restarted (404) or was draining (the client's retry/backoff already
// absorbs transient 503s). Until a registration is answered, it is retried
// every 5 s.
func registerLoop(ctx context.Context, ctl *client.Client, pl *core.Platform, w *cluster.Worker, advertise string) {
	beat := 5 * time.Second
	registered := false
	register := func() {
		xml, err := pdlxml.Marshal(pl)
		if err != nil {
			log.Printf("pdlworkerd: marshalling platform: %v", err)
			return
		}
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := ctl.PutBytes(rctx, "/platforms/"+pl.Name, "application/xml", xml); err != nil {
			log.Printf("pdlworkerd: uploading platform %s: %v", pl.Name, err)
			return
		}
		info := w.Info()
		var lease struct {
			TTLSeconds float64 `json:"ttl_seconds"`
		}
		err = ctl.PostJSON(rctx, "/workers/"+info.Name, server.WorkerInfo{
			ID:       info.Name,
			Addr:     advertise,
			Platform: pl.Name,
			Archs:    info.Archs,
			Workers:  info.Workers,
		}, &lease)
		if err != nil {
			log.Printf("pdlworkerd: registering lease: %v", err)
			return
		}
		if lease.TTLSeconds > 0 {
			beat = time.Duration(lease.TTLSeconds / 3 * float64(time.Second))
		}
		if !registered {
			log.Printf("pdlworkerd: registered with %s as %s (platform %s, heartbeat every %s)", ctl.Base(), info.Name, pl.Name, beat)
		}
		registered = true
	}
	register()
	t := time.NewTimer(beat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if registered {
			bctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			err := ctl.PostJSON(bctx, "/workers/"+w.Info().Name+"/heartbeat", nil, nil)
			cancel()
			switch {
			case err == nil:
			case client.IsStatus(err, http.StatusNotFound):
				// Server lost the lease (restart or expiry): re-register.
				registered = false
			case ctx.Err() != nil:
				return
			default:
				log.Printf("pdlworkerd: heartbeat: %v", err)
			}
		}
		if !registered {
			register()
		}
		t.Reset(beat)
	}
}

// advertiseHost rewrites wildcard listen addresses into something another
// process can dial.
func advertiseHost(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}
