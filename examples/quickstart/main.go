// Quickstart: build a platform description with the fluent builder, emit it
// as PDL XML (the paper's Listing 1 shape), validate it against the machine
// model and typed schemas, and query it with selector expressions.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/pdlxml"
	"repro/internal/query"
	"repro/internal/schema"
)

func main() {
	// 1. Describe a GPGPU node: an x86 Master controlling one gpu Worker
	//    over an rDMA interconnect — the paper's Listing 1.
	platform, err := core.NewBuilder("gpgpu-node").
		Master("0", core.Arch("x86"),
			core.WithUnitProp(core.PropClockMHz, "2660", "MHz"),
			core.InGroups("cpuset")).
		Worker("1", core.Arch("gpu"),
			core.WithProp(core.PropDeviceName, "GeForce GTX 480"),
			core.InGroups("gpuset")).
		Link(core.ICTypeRDMA, "0", "1", core.Bandwidth(5), core.Latency(10)).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Emit the PDL document.
	fmt.Println("--- PDL document ---")
	if err := pdlxml.Write(os.Stdout, platform); err != nil {
		log.Fatal(err)
	}

	// 3. Validate against the machine model and the typed property schemas.
	report := schema.ValidatePlatform(platform, schema.Default())
	fmt.Println("--- validation ---")
	fmt.Print(report.String())

	// 4. Query it: the API the paper positions next to hwloc and the OpenCL
	//    platform query functions.
	fmt.Println("--- queries ---")
	gpus := query.MustSelect(platform, "//Worker[ARCHITECTURE=gpu]")
	fmt.Printf("gpu workers: %d (%s)\n", len(gpus), gpus[0].ID)
	var cpuset []string
	for _, pu := range query.MustSelect(platform, "//*[group=cpuset]") {
		cpuset = append(cpuset, pu.ID)
	}
	fmt.Printf("cpuset group: %v\n", cpuset)
	route, err := platform.Route("0", "1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("route 0 -> 1: %s link\n", route[0].Type)

	// 5. Round-trip: parse the document back and confirm identity of the
	//    control view.
	data, err := pdlxml.Marshal(platform)
	if err != nil {
		log.Fatal(err)
	}
	back, err := pdlxml.Unmarshal(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round-trip: %d PUs, master controls %d unit(s)\n",
		len(back.AllPUs()), len(back.Masters[0].Children))
}
