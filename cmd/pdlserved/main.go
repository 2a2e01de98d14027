// Command pdlserved serves the PDL platform registry over HTTP: upload and
// validate platform descriptions, evaluate the query DSL shared with
// pdlquery, record observations and get perfmodel-backed predictions, and
// scrape Prometheus-style metrics.
//
// Usage:
//
//	pdlserved -addr :8080
//	pdlserved -addr :8080 -preload internal/pdlxml/testdata
//	pdlserved -addr :8080 -rate 100 -burst 200 -max-body 1048576
//	pdlserved -addr :8080 -data-dir /var/lib/pdlserved -snapshot-every 1000
//	pdlserved export -data-dir /var/lib/pdlserved -out bundle.wal
//	pdlserved import -data-dir /var/lib/pdlserved-new -in bundle.wal
//
// With -data-dir set, every mutation is write-ahead journaled (fsync'd by
// default) and every -snapshot-every records the journal is compacted: a new
// journal begins with an image of the store in the same records. A restarted
// server replays the newest image and the mutations after it and comes back
// with identical versions, ETags and perfmodel history. The export/import
// subcommands move that state between air-gapped environments as one file,
// the compacted journal itself.
//
// Endpoints:
//
//	PUT    /platforms/{name}           upload + validate PDL XML
//	GET    /platforms                  list stored platforms
//	GET    /platforms/{name}           canonical XML (ETag / If-None-Match)
//	DELETE /platforms/{name}           remove a platform
//	GET    /platforms/{name}/pus       query DSL: ?kind=worker&group=...&prop=...
//	GET    /platforms/{name}/predict   ?codelet=...&size=...
//	GET    /platforms/{name}/rank      ?iface=...&size=...
//	POST   /platforms/{name}/observe   {"codelet":..., "size":..., "seconds":...}
//	GET    /healthz                    liveness + store version
//	GET    /metrics                    Prometheus text format (+ federated taskrt_fleet_* series)
//	GET    /debug/trace                last published run trace (?format=chrome|jsonl)
//
// Fleet federation: with workers registered, pdlserved scrapes each leased
// worker's /metrics every -fleet-scrape interval and re-exports the
// taskrt_worker_* families on its own /metrics as node-labelled
// taskrt_fleet_* series — one scrape shows kernel latency across the whole
// cluster. Series for deregistered, expired or unreachable workers are
// removed, not frozen. -pprof mounts net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/trace"

	// Register the task runtime's taskrt_* families in metrics.Default so
	// /metrics exposes runtime activity next to the pdlserved_* families
	// (net/http/pprof-style side-effect import; any in-process taskrt run —
	// embedded or future — reports through the same registry).
	_ "repro/internal/taskrt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pdlserved:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "export":
			return runExport(args[1:])
		case "import":
			return runImport(args[1:])
		}
	}
	fs := flag.NewFlagSet("pdlserved", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		preload       = fs.String("preload", "", "directory of *.pdl.xml documents to load at boot")
		strictPreload = fs.Bool("strict-preload", false, "fail startup on any invalid preload file instead of logging and skipping it")
		cacheSize     = fs.Int("cache", 256, "query-result cache capacity (0 disables)")
		rate          = fs.Float64("rate", 0, "per-client request rate limit in req/s (0 disables)")
		burst         = fs.Float64("burst", 0, "rate-limit burst (default 2x rate)")
		maxBody       = fs.Int64("max-body", 4<<20, "maximum upload body size in bytes")
		readTimeout   = fs.Duration("read-timeout", 10*time.Second, "HTTP server read timeout")
		writeTimeout  = fs.Duration("write-timeout", 30*time.Second, "HTTP server write timeout")
		idleTimeout   = fs.Duration("idle-timeout", 2*time.Minute, "HTTP server idle timeout")
		drain         = fs.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
		accessLog     = fs.String("access-log", "-", "access log destination: '-' for stderr, a path, or '' to disable")
		traceFile     = fs.String("trace", "", "trace file (Chrome JSON or pdltrace JSONL) to serve at /debug/trace")
		dataDir       = fs.String("data-dir", "", "durability directory for the write-ahead journal ('' = in-memory only)")
		snapshotEvery = fs.Int("snapshot-every", 1024, "compact the journal after this many records (0 disables automatic compaction)")
		fsync         = fs.Bool("fsync", true, "fsync the journal on every committed mutation")
		fleetEvery    = fs.Duration("fleet-scrape", server.DefaultFleetScrapeEvery, "interval for scraping leased workers' /metrics into the federated taskrt_fleet_* export (0 disables)")
		pprofOn       = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var logDst io.Writer
	switch *accessLog {
	case "":
	case "-":
		logDst = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		logDst = f
	}

	if *traceFile != "" {
		tr, err := trace.ReadFile(*traceFile)
		if err != nil {
			return err
		}
		trace.Publish(tr)
		log.Printf("pdlserved: serving trace %s (%d events) at /debug/trace", *traceFile, tr.Len())
	}

	reg := registry.New(registry.WithCacheSize(*cacheSize))
	tuner := predict.NewTuner()

	var persist *registry.Persistence
	if *dataDir != "" {
		var err error
		persist, err = registry.OpenPersistence(*dataDir, reg, tuner, registry.PersistOptions{
			Fsync:         *fsync,
			SnapshotEvery: *snapshotEvery,
		})
		if err != nil {
			return fmt.Errorf("open data dir %s: %w", *dataDir, err)
		}
		defer persist.Close()
		rec := persist.Recovery()
		log.Printf("pdlserved: recovered %d platform(s) from %s (base journal seq %d, %d record(s) replayed, torn tail: %v)",
			reg.Len(), *dataDir, rec.BaseSeq, rec.ReplayedRecords, rec.TornTail)
	}

	if *preload != "" {
		n, skipped, err := preloadDir(reg, persist, *preload, *strictPreload)
		if err != nil {
			return err
		}
		log.Printf("pdlserved: preloaded %d platform(s) from %s (%d skipped)", n, *preload, skipped)
	}

	srv := server.New(server.Config{
		Registry:     reg,
		Tuner:        tuner,
		Persist:      persist,
		MaxBodyBytes: *maxBody,
		RateLimit:    *rate,
		RateBurst:    *burst,
		AccessLog:    logDst,
	})

	if *fleetEvery > 0 {
		stopFleet := srv.StartFleetScrape(*fleetEvery)
		defer stopFleet()
		log.Printf("pdlserved: federating worker metrics every %s", *fleetEvery)
	}

	handler := srv.Handler()
	if *pprofOn {
		handler = metrics.WithPprof(handler)
	}

	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, then drain
	// in-flight requests for up to -drain before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("pdlserved: listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("pdlserved: shutting down, draining for up to %s", *drain)
	// Drain ordering: stop taking on worker leases first (new registrations
	// and heartbeat renewals 503 so the fleet fails over), let in-flight
	// requests — including /observe writes — complete under Shutdown, then
	// force the journal to stable storage before closing it. Without the
	// Sync, observations acknowledged under -fsync=false would ride the page
	// cache through exit.
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if persist != nil {
		if err := persist.Sync(); err != nil {
			log.Printf("pdlserved: journal sync on drain failed: %v", err)
		}
	}
	return <-errc
}

// preloadDir uploads every *.pdl.xml under dir into the registry, keyed by
// the file's base name without the .pdl.xml suffix. Invalid files are
// logged and skipped — one bad document must not keep the whole service
// down — unless strict is set, in which case the first failure aborts
// startup (for deployments that treat the preload set as authoritative).
// With a durability layer attached, preloaded documents are journaled like
// any other mutation; re-preloading an already-recovered document is a
// content-hash no-op and journals nothing.
func preloadDir(reg *registry.Registry, persist *registry.Persistence, dir string, strict bool) (loaded, skipped int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.pdl.xml"))
	if err != nil {
		return 0, 0, err
	}
	for _, p := range paths {
		name := filepath.Base(p)
		name = name[:len(name)-len(".pdl.xml")]
		err := preloadOne(reg, persist, name, p)
		if err != nil {
			if strict {
				return loaded, skipped, fmt.Errorf("preload %s: %w (strict mode)", p, err)
			}
			skipped++
			log.Printf("pdlserved: skipping preload %s: %v", p, err)
			continue
		}
		loaded++
	}
	return loaded, skipped, nil
}

// preloadOne validates and commits a single preload file through the same
// write-ahead path PUT uses.
func preloadOne(reg *registry.Registry, persist *registry.Persistence, name, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, _, err = persist.Put(reg, name, data)
	return err
}

// runExport recovers the store from a data dir and writes it as a bundle —
// a compacted journal holding just the store's image — for air-gapped
// promotion.
func runExport(args []string) error {
	fs := flag.NewFlagSet("pdlserved export", flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "durability directory to export (required)")
	out := fs.String("out", "-", "bundle destination: a file path or '-' for stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return errors.New("export: -data-dir is required")
	}
	reg := registry.New()
	tuner := predict.NewTuner()
	persist, err := registry.OpenPersistence(*dataDir, reg, tuner, registry.PersistOptions{Fsync: false})
	if err != nil {
		return fmt.Errorf("export: open %s: %w", *dataDir, err)
	}
	defer persist.Close()

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	info, err := persist.WriteBundle(w)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	log.Printf("pdlserved: exported %d platform(s), store version %d", info.Platforms, info.StoreVersion)
	return nil
}

// runImport seeds an empty data dir from a bundle and verifies it by
// running a full recovery over the imported journal.
func runImport(args []string) error {
	fs := flag.NewFlagSet("pdlserved import", flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "empty durability directory to import into (required)")
	in := fs.String("in", "-", "bundle source: a file path or '-' for stdin")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return errors.New("import: -data-dir is required")
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	info, err := registry.ImportBundle(r, *dataDir)
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	// Prove the imported state recovers: open it exactly like serving would.
	reg := registry.New()
	persist, err := registry.OpenPersistence(*dataDir, reg, predict.NewTuner(), registry.PersistOptions{Fsync: false})
	if err != nil {
		return fmt.Errorf("import: verify recovery: %w", err)
	}
	persist.Close()
	log.Printf("pdlserved: imported %d platform(s) into %s (store version %d); serve with -data-dir %s",
		reg.Len(), *dataDir, info.StoreVersion, *dataDir)
	return nil
}
