//go:build !amd64

package main

func fmaLoop(iters int) float64 { return fmaLoopScalar(iters) }

func fmaKind() string { return "8 chains of scalar math.FMA" }

// refCompute is the compute half of the host-speed reference.
func refCompute(iters int) { fmaLoopScalar(iters) }
