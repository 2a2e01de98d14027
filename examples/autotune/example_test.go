package main

// Example runs the example end to end. The makespans it observes are virtual
// times of the sim engine and the predictions are fitted to them, so a change
// that moves virtual time changes this output.
func Example() {
	main()
	// Output:
	// observing on xeon-2gpu ...
	//   n=1024: gpu-platform 0.0166s, cpu-platform 0.0548s
	//   n=2048: gpu-platform 0.0943s, cpu-platform 0.2194s
	//   n=4096: gpu-platform 0.6200s, cpu-platform 1.7551s
	//
	// prediction for gtx480, DGEMM 8192 via pattern "opencl": 3.69s (3 samples)
	// variant ranking for gtx480 (fastest first):
	//   1. dgemm_cublas   predicted 3.69s via pattern "opencl"
	//   2. dgemm_goto     predicted 8.85s via pattern "x86"
	//   3. dgemm_naive    (no observations yet)
}
