package main

// Example runs the example end to end. It pins the mapping, the compile plan
// and the simulated makespan of one program on three catalog platforms, so a
// change to any of those platform descriptions changes this output.
func Example() {
	main()
	// Output:
	// === target xeon-cpu ===
	// platform xeon-cpu
	// line 21: Iscale -> scale_cpu(x86)
	// # cascabel compile plan for platform "xeon-cpu"
	// gcc -O3 -fopenmp -c scale_cpu.c -o variants_x86.o   # units: host
	// gcc variants_x86.o -ltaskrt -o program.xeon-cpu
	// simulated makespan: 0.000056s across 8 busy unit(s)
	//
	// === target xeon-2gpu ===
	// platform xeon-2gpu
	// line 21: Iscale -> scale_cpu(x86) scale_gpu(gpu)
	// # cascabel compile plan for platform "xeon-2gpu"
	// nvcc -O3 -arch=sm_20 -c scale_gpu.c -o variants_gpu.o   # units: dev0,dev1
	// gcc -O3 -fopenmp -c scale_cpu.c -o variants_x86.o   # units: host
	// gcc variants_gpu.o variants_x86.o -ltaskrt -o program.xeon-2gpu
	// simulated makespan: 0.000056s across 8 busy unit(s)
	//
	// === target cell-blade ===
	// platform cell-blade
	// line 21: Iscale -> scale_cpu(x86) scale_spe(spe)
	// # cascabel compile plan for platform "cell-blade"
	// spu-gcc -O3 -c scale_spe.c -o variants_spe.o   # units: spe
	// gcc -O3 -fopenmp -c scale_cpu.c -o variants_x86.o   # units: none
	// gcc variants_spe.o variants_x86.o -ltaskrt -o program.cell-blade
	// simulated makespan: 0.000186s across 8 busy unit(s)
	//
	// annotation demo: interface=Iscale group=gpuset dist=BLOCK
}
