package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one (workload, end-to-end metric) pair between two sets of
// runs of the same benchmark: A is the reference (the parent commit, or the
// first set of an A/A check), B the candidate.
type verdict struct {
	Workload, Metric string
	A, B             summary
	// Worse is how much worse B's median is than A's, as a share of A's
	// median; negative when B is better.
	Worse  float64
	Bound  float64
	Result string // PASS, FAIL or UNRESOLVED
}

// judge compares two samples of one metric. FAIL: B's median is worse by
// more than the bound. UNRESOLVED: the medians are within the bound but
// either side's inter-quartile spread is wider than the bound, so "no
// change" is not shown — unless every run of B reads better than every run
// of A. PASS otherwise.
func judge(def metricDef, a, b []float64) verdict {
	v := verdict{Metric: def.Name, A: summarize(a), B: summarize(b), Bound: def.Bound}
	if v.A.Median != 0 {
		v.Worse = (v.B.Median - v.A.Median) / v.A.Median
		if def.Better == "higher" {
			v.Worse = -v.Worse
		}
	}
	switch {
	case v.Worse > def.Bound:
		v.Result = "FAIL"
	case (v.A.relSpread() > def.Bound || v.B.relSpread() > def.Bound) && !allBetter(def, a, b):
		v.Result = "UNRESOLVED"
	default:
		v.Result = "PASS"
	}
	return v
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(def metricDef, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if def.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one verdict per workload and end-to-end metric and
// returns an error when any pair fails.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResults(pathA)
	if err != nil {
		return err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s\n   %s\nB: %s\n   %s\n", pathA, fa.Fingerprint, pathB, fb.Fingerprint)
	if fa.Seconds != fb.Seconds {
		return fmt.Errorf("run lengths differ: %g s and %g s", fa.Seconds, fb.Seconds)
	}
	ga, gb := groupRuns(fa.Runs), groupRuns(fb.Runs)
	fmt.Fprintf(w, "%-14s %-18s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "worse", "bound", "verdict")
	fails := 0
	for _, wl := range workloads {
		for _, def := range endToEnd {
			a, b := ga[wl.name][def.Name], gb[wl.name][def.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(def, a, b)
			if v.Result == "FAIL" {
				fails++
			}
			fmt.Fprintf(w, "%-14s %-18s %12.6g %7.1f%% %12.6g %7.1f%% %+7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.name, def.Name, v.A.Median, 100*v.A.relSpread(), v.B.Median, 100*v.B.relSpread(),
				100*v.Worse, 100*def.Bound, v.Result, v.A.N, v.B.N)
		}
		fa, fb := failedShare(fa.Runs, wl.name), failedShare(fb.Runs, wl.name)
		if fa >= 0 && fb >= 0 {
			res := "PASS"
			if fb > fa {
				res = "FAIL"
				fails++
			}
			fmt.Fprintf(w, "%-14s %-18s %12.6g %8s %12.6g %8s %8s %6s  %s\n", wl.name, "failed_share", fa, "", fb, "", "", "0", res)
		}
	}
	if fails > 0 {
		return fmt.Errorf("%d pair(s) worse than their bound", fails)
	}
	return nil
}

// failedShare is failed ÷ attempted over a workload's end-to-end runs; -1
// when it has none.
func failedShare(runs []runRecord, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return -1
	}
	return float64(failed) / float64(attempted)
}
