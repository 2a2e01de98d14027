// Command benchmark is this repository's one benchmark: seven workloads,
// four end-to-end metrics each with tracing off, and a traced pass that
// attributes time to the layers (modules) underneath. See README.md.
//
// The driver's form, one run of one workload, one JSON object on the last
// line of standard output:
//
//	benchmark --workload chol-smp --seed 1 --seconds 12 --trace 0
//
// Without --workload every workload runs; without --trace both passes run
// (the traced one a third as long). Tables and notes go to standard error.
//
//	benchmark -seed 1                       every workload, both passes
//	benchmark -runs 10 -trace 0 -out A.json ten seeds per workload, for -compare
//	benchmark -compare A.json B.json        A/A or parent/change verdicts
//	benchmark -smoke                        every workload once at toy size
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds what a run leaves behind: span files, and while a serve
// workload runs its access log and journal. It is on the checkout's
// filesystem on purpose: serve-write measures that filesystem's fsync.
const outDir = "benchmark/out"

func main() {
	if len(os.Args) == 2 && os.Args[1] == idleSpinArg {
		idleSpin()
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run (default: all seven)")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Float64("seconds", 12, "length of each workload's measured phase")
		trace   = fs.String("trace", "both", "0: end-to-end pass, tracing off; 1: traced per-layer pass; both")
		runs    = fs.Int("runs", 1, "runs per workload, each with the next seed")
		out     = fs.String("out", "", "write every run's metrics to this JSON file (input of -compare)")
		smoke   = fs.Bool("smoke", false, "run each workload once at toy size; checks the harness, measures nothing")
		compare = fs.Bool("compare", false, "compare two -out files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	var passes []bool // traced?
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, not %q", *trace)
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := findWorkload(strings.TrimSpace(n))
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			selected = append(selected, w)
		}
	}
	if *smoke {
		*seconds = 0.2 // the loops' minimum rep counts decide, not the clock
	}
	if *seconds <= 0 || *runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}

	// One budget for busy threads everywhere: GOMAXPROCS = nproc, and the
	// workloads size worker pools and connection counts from it.
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	refRoutine() // first touch of its array
	fp := fingerprint(*seed, workers)
	fmt.Fprintln(os.Stderr, fp)

	file := resultFile{Fingerprint: fp, Seconds: *seconds}
	failed := false
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			for _, traced := range passes {
				p := params{seed: *seed + int64(i), smoke: *smoke, workers: workers}
				secs := *seconds
				if traced && len(passes) == 2 {
					secs /= 3
				}
				t0 := time.Now()
				res, err := runWorkload(w, p, secs, traced)
				if err != nil {
					return err
				}
				rec := newRunRecord(w.name, p.seed, traced, res)
				printRun(os.Stderr, rec, res, time.Since(t0))
				line, err := json.Marshal(rec.contractLine())
				if err != nil {
					return err
				}
				fmt.Println(string(line))
				file.Runs = append(file.Runs, rec)
				failed = failed || !rec.Correct
			}
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			return err
		}
	}
	if len(file.Runs) > 1 {
		printSpread(os.Stderr, file.Runs)
	}
	if failed {
		return fmt.Errorf("outputs were wrong or operations failed; see above")
	}
	return nil
}

// metricValue is a metric as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload in one pass.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// HostRefMs is the median host-reference time beside the reps, SetupRefMs
	// beside the set-ups: how fast the host was, for the reader of the file.
	HostRefMs  float64 `json:"host_ref_ms"`
	SetupRefMs float64 `json:"setup_ref_ms"`
}

// newRunRecord keeps exactly the metrics of the pass: every end-to-end
// metric, or every per-layer metric with 0 for those the workload does not
// exercise.
func newRunRecord(workload string, seed int64, traced bool, res *result) runRecord {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rec := runRecord{
		Workload: workload, Seed: seed, Traced: traced,
		Attempted: res.attempted, Failed: res.failed,
		Correct:    res.failed == 0 && res.attempted > 0,
		Metrics:    map[string]metricValue{},
		HostRefMs:  median(res.ref.all()) * 1e3,
		SetupRefMs: median(res.setupRef.all()) * 1e3,
	}
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: res.values[d.Name], Unit: d.Unit}
	}
	return rec
}

// contractLine is the object the driver parses: exactly these four keys.
func (r runRecord) contractLine() map[string]any {
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": r.Metrics}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Fingerprint string      `json:"fingerprint"`
	Seconds     float64     `json:"seconds"`
	Runs        []runRecord `json:"runs"`
}

func (f resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printRun(w *os.File, rec runRecord, res *result, took time.Duration) {
	pass := "end-to-end (tracing off)"
	if rec.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  %.1f s ==\n", rec.Workload, rec.Seed, pass, took.Seconds())
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		if rec.Traced && m.Value == 0 {
			continue // not exercised by this workload
		}
		if s, ok := res.samples[n]; ok && s.N > 1 {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%d  q1 %.6g  q3 %.6g\n", n, m.Value, m.Unit, s.N, s.Q1, s.Q3)
		} else {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	share := 0.0
	if rec.Attempted > 0 {
		share = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.6g         (%d failed of %d attempted)\n", "failed_share", share, rec.Failed, rec.Attempted)
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printSpread summarises repeated end-to-end runs the way the acceptance
// check does: per workload and metric, the median over runs and the
// inter-quartile distance as a share of it, next to the bound.
func printSpread(w *os.File, runs []runRecord) {
	byWorkload := groupRuns(runs)
	printed := false
	for _, wl := range workloads {
		g := byWorkload[wl.name]
		for _, d := range endToEnd {
			if len(g[d.Name]) < 2 {
				continue
			}
			if !printed {
				fmt.Fprintf(w, "\n== spread over runs (end-to-end) ==\n")
				printed = true
			}
			s := summarize(g[d.Name])
			fmt.Fprintf(w, "  %-14s %-18s median %12.6g %-4s iqr/median %6.3f  bound %.2f  n=%d\n",
				wl.name, d.Name, s.Median, d.Unit, s.relSpread(), d.Bound, s.N)
		}
	}
}

// groupRuns collects the end-to-end values of each workload's runs.
func groupRuns(runs []runRecord) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for n, m := range r.Metrics {
			out[r.Workload][n] = append(out[r.Workload][n], m.Value)
		}
	}
	return out
}

// fingerprint identifies what produced the numbers.
func fingerprint(seed int64, workers int) string {
	commit := "unknown" // the driver's checkout is not a git repository
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		commit = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			commit = ref
			if b, err := os.ReadFile(".git/" + ref); err == nil {
				commit = strings.TrimSpace(string(b))
			}
		}
		if len(commit) > 12 && !strings.Contains(commit, "/") {
			commit = commit[:12]
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fmt.Sprintf("host: commit=%s go=%s %s/%s cpu=%q cores=%d gomaxprocs=%d llc=%dMiB fs(%s)=%s seed=%d",
		commit, runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu, runtime.NumCPU(), workers,
		llcBytes()>>20, outDir, fsType("."), seed)
}
