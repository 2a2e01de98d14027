package main

// Example runs the example end to end in the sim engine. It pins the clean,
// degraded and recovered virtual makespans, the retries and blacklist the
// crash causes, the Gantt chart of the degraded run and the descriptor's
// events and views, so a change that moves virtual time, fault handling or
// the tracked descriptor changes this output.
func Example() {
	main()
	// Output:
	// [clean]    makespan 0.0939s, gpu tasks 47, cpu tasks 17
	//
	// injecting: dev0 and dev1 crash at t=0.0235s (25% of clean run)
	// descriptor event v1: offline dev0
	// descriptor event v2: offline dev1
	// [gpu-loss] makespan 0.2194s, gpu tasks 10, cpu tasks 54
	//            failed attempts 2, retried tasks 1, blacklisted [dev0 dev1]
	//            degradation factor 2.34x
	//
	// gantt: 105 events over 0.219390s ('#'=compute '~'=transfer 'X'=failure)
	// dev0         |#######.........................................................|
	// dev1         |######.X........................................................|
	// host.0       |.......#########################################################|
	// host.1       |################################################################|
	// host.2       |################################################################|
	// host.3       |################################################################|
	// host.4       |################################################################|
	// host.5       |#########################################################.......|
	// host.6       |#################################...............................|
	// host.7       |#################################...............................|
	// node0        |.~~~~~~.........................................................|
	// node1        |~~~~~~~.........................................................|
	// node2        |~~~~...~........................................................|
	//
	// degraded descriptor: 2 unit(s) offline, logical views [seq x86 smp starpu derived:xeon-2gpu]
	// descriptor event v3: property-filled dev1
	// descriptor event v4: online dev1
	// descriptor event v5: online dev0
	// [recovered] makespan 0.0939s, gpu tasks 47 — back to 1.00x of clean
}
