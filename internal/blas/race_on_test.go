//go:build race

package blas

// raceEnabled reports whether the race detector instruments this build, for
// tests whose allocation counting it would skew.
//
// Under -race the assembly is left out of the build (see microkernel_amd64.go),
// so every read of A and B and every write of C in a packed product is
// instrumented Go: that is what lets `make race` over the task runtime and
// the cluster engine see two tile tasks that miss a dependency edge. The pin
// is on the kernel selection (TestPortableBuildSelectsGoFamily), not on a
// staged race: a race report ends the racing process, so it cannot be
// asserted from inside it.
const raceEnabled = true
