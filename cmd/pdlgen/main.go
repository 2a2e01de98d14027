// Command pdlgen generates PDL platform descriptions: either one of the
// catalog platforms (including the paper's Listing 1 node and the evaluation
// testbed), printed as its file in internal/discover/platforms reads without
// the comments, or a description of the current machine discovered via the
// host probe, optionally enriched with synthetic OpenCL device enumeration
// (the paper's Listing 2 content). -gpus and -concrete shape only the
// discovered description; a catalog platform is fixed.
//
// Usage:
//
//	pdlgen -list
//	pdlgen -platform xeon-2gpu [-o out.pdl.xml]
//	pdlgen -discover [-gpus 2] [-concrete]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/pdlxml"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdlgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdlgen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		list     = fs.Bool("list", false, "list catalog platforms")
		platform = fs.String("platform", "", "catalog platform name to emit")
		doProbe  = fs.Bool("discover", false, "probe this machine instead of using the catalog")
		gpus     = fs.Int("gpus", 0, "with -discover: attach N synthetic GPUs (GTX480/GTX285 alternating)")
		concrete = fs.Bool("concrete", false, "with -discover: attach runtime-derived (ocl:) properties")
		out      = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range discover.CatalogNames() {
			fmt.Fprintf(stdout, "%-12s %s\n", name, discover.CatalogDoc(name))
		}
		return nil
	}
	var pl *core.Platform
	switch {
	case *platform != "" && *doProbe:
		return fmt.Errorf("use either -platform or -discover, not both")
	case *platform != "" && *gpus != 0:
		return fmt.Errorf("-gpus needs -discover: catalog platform %q is fixed", *platform)
	case *platform != "" && *concrete:
		return fmt.Errorf("-concrete needs -discover: catalog platform %q is fixed", *platform)
	case *platform != "":
		p, err := discover.Platform(*platform)
		if err != nil {
			return err
		}
		pl = p
	case *doProbe:
		var devs []*discover.OpenCLDevice
		for i := 0; i < *gpus; i++ {
			if i%2 == 0 {
				devs = append(devs, discover.GTX480())
			} else {
				devs = append(devs, discover.GTX285())
			}
		}
		p, err := discover.Generate(discover.Options{
			Name: "discovered", Devices: devs, Concrete: *concrete,
		})
		if err != nil {
			return err
		}
		pl = p
	default:
		return fmt.Errorf("nothing to do: pass -list, -platform <name> or -discover (see -h)")
	}
	if *out != "" {
		return pdlxml.WriteFile(*out, pl)
	}
	return pdlxml.Write(stdout, pl)
}
