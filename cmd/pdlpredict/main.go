// Command pdlpredict drives the pattern-keyed auto-tuning workflow of the
// paper's Figure 1: observe codelet execution times on one platform (here
// produced by the calibrated simulator), persist the pattern-keyed models,
// and later predict performance — and rank DGEMM implementation variants —
// for a different platform that was never measured.
//
// Usage:
//
//	pdlpredict -observe -platform xeon-2gpu -models models.json   # measure & save
//	pdlpredict -predict -platform gtx480 -models models.json -n 8192
//	pdlpredict -rank -platform gtx480 -models models.json -n 8192
//	pdlpredict -observe -platform xeon-2gpu -server http://registry:8080
//	pdlpredict -predict -platform gtx480 -server http://registry:8080 -n 8192
//
// With -server the model store lives in a pdlserved registry instead of a
// local JSON file: -observe streams measurements to POST
// /platforms/{name}/observe and -predict/-rank query the server's
// pattern-keyed models, so several hosts share one tuning corpus.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/experiments"
	"repro/internal/pdlxml"
	"repro/internal/predict"
	"repro/internal/repo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdlpredict:", err)
		os.Exit(1)
	}
}

func flopsOf(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdlpredict", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		observe  = fs.Bool("observe", false, "run calibration workloads on the platform and record observations")
		doPred   = fs.Bool("predict", false, "predict DGEMM time on the platform from saved models")
		rank     = fs.Bool("rank", false, "rank DGEMM implementation variants for the platform")
		platform = fs.String("platform", "", "catalog platform name (required)")
		models   = fs.String("models", "", "model store JSON path (required unless -server)")
		server   = fs.String("server", "", "pdlserved base URL holding the shared model store ('' = local -models file)")
		n        = fs.Int("n", 8192, "matrix extent for -predict/-rank")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *platform == "" || (*models == "" && *server == "") {
		return fmt.Errorf("usage: pdlpredict -observe|-predict|-rank -platform <name> (-models <file.json> | -server <url>)")
	}
	// Only -predict and -rank against a server may name a platform the catalog lacks.
	var (
		pl  *core.Platform
		st  *backend
		err error
	)
	if *server == "" || *observe {
		if pl, err = discover.Platform(*platform); err != nil {
			return err
		}
	}
	if *server != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		st, err = serverBackend(ctx, *server, *platform, pl)
	} else {
		st, err = localBackend(pl, *models)
	}
	if err != nil {
		return err
	}
	switch {
	case *observe:
		// Calibration sweep: the three library DGEMM variants at three
		// sizes, timed by the simulator on this platform's descriptor.
		for _, size := range []int{1024, 2048, 4096} {
			rep, err := experiments.SimDGEMM(pl, size, 512, "dmda")
			if err != nil {
				return err
			}
			// Attribute the measured makespan to the variant that dominated
			// the platform: cublas when GPUs ran tasks, goto otherwise.
			variant := "dgemm_goto"
			if rep.TasksOnArch("gpu") > rep.TasksOnArch("x86") {
				variant = "dgemm_cublas"
			}
			if err := st.observe(variant, flopsOf(size), rep.MakespanSeconds); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "observed %s n=%d: %.4fs (%s)\n", *platform, size, rep.MakespanSeconds, variant)
		}
		where, err := st.commit()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, where)
	case *doPred:
		for _, variant := range []string{"dgemm_cublas", "dgemm_goto"} {
			pred, err := st.predict(variant, flopsOf(*n))
			if err != nil {
				fmt.Fprintf(stdout, "%-14s no prediction (%v)\n", variant, err)
				continue
			}
			fmt.Fprintf(stdout, "%-14s predicted %.4fs via pattern %q (%d samples)\n",
				variant, pred.Seconds, pred.Pattern, pred.Samples)
		}
	case *rank:
		order, err := st.rank(flopsOf(*n))
		if err != nil {
			return err
		}
		for i, rk := range order {
			if rk.Pattern == "" { // no pattern's model covers the variant
				fmt.Fprintf(stdout, "%d. %-14s (no observations)\n", i+1, rk.Variant)
				continue
			}
			fmt.Fprintf(stdout, "%d. %-14s %.4fs via %q\n", i+1, rk.Variant, rk.Seconds, rk.Pattern)
		}
	default:
		return fmt.Errorf("pass one of -observe, -predict or -rank")
	}
	return nil
}

// backend is one model store as the three actions use it: a local JSON file
// behind a predict.Tuner, or a pdlserved registry, where observations from
// many hosts pool into one corpus keyed by the uploaded platform documents.
type backend struct {
	observe func(variant string, size, seconds float64) error
	commit  func() (string, error) // makes the observations durable and says where they went
	predict func(variant string, size float64) (predict.Prediction, error)
	rank    func(size float64) ([]ranked, error) // the variants that match the platform, best first
}

// ranked is one variant's place in a ranking; Pattern names the model behind
// the estimate and is empty when no model covers the variant. Like
// predict.Prediction, it decodes from the server's JSON by field name.
type ranked struct {
	Variant, Pattern string
	Seconds          float64
}

func localBackend(pl *core.Platform, path string) (*backend, error) {
	tuner := predict.NewTuner()
	if err := tuner.Store().Load(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return &backend{
		observe: func(variant string, size, seconds float64) error { return tuner.Observe(pl, variant, size, seconds) },
		commit:  func() (string, error) { return "saved models to " + path, tuner.Store().Save(path) },
		predict: func(variant string, size float64) (predict.Prediction, error) {
			return tuner.Predict(pl, variant, size)
		},
		rank: func(size float64) ([]ranked, error) {
			all, err := tuner.RankVariants(repo.NewWithLibrary(), repo.IfaceDGEMM, pl, size)
			out := make([]ranked, len(all))
			for i, rk := range all {
				out[i] = ranked{Variant: rk.Variant.Name, Pattern: rk.Prediction.Pattern, Seconds: rk.Prediction.Seconds}
			}
			return out, err
		},
	}, nil
}

// serverBackend keeps the models in the registry at base. A non-nil pl is
// about to be observed: the observe endpoint models against the registered
// document, so it is uploaded first (an idempotent PUT).
func serverBackend(ctx context.Context, base, platform string, pl *core.Platform) (*backend, error) {
	ctl, err := client.New(base, client.WithRetry(2, 200*time.Millisecond))
	if err != nil {
		return nil, err
	}
	if pl != nil {
		xml, err := pdlxml.Marshal(pl)
		if err != nil {
			return nil, err
		}
		if err := ctl.PutBytes(ctx, "/platforms/"+platform, "application/xml", xml); err != nil {
			return nil, err
		}
	}
	ask := func(what, key, value string, size float64, into any) error {
		return ctl.GetJSON(ctx, "/platforms/"+platform+"/"+what+"?"+url.Values{
			key: {value}, "size": {strconv.FormatFloat(size, 'f', -1, 64)},
		}.Encode(), into)
	}
	return &backend{
		observe: func(variant string, size, seconds float64) error {
			return ctl.PostJSON(ctx, "/platforms/"+platform+"/observe",
				map[string]any{"codelet": variant, "size": size, "seconds": seconds}, nil)
		},
		commit: func() (string, error) { return "streamed observations to " + ctl.Base(), nil },
		predict: func(variant string, size float64) (predict.Prediction, error) {
			var p predict.Prediction
			err := ask("predict", "codelet", variant, size, &p)
			return p, err
		},
		rank: func(size float64) ([]ranked, error) {
			var out struct{ Ranked []ranked }
			err := ask("rank", "iface", repo.IfaceDGEMM, size, &out)
			return out.Ranked, err
		},
	}, nil
}
