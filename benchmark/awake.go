package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// A virtual CPU with nothing to run halts, and waking it costs tens of
// microseconds. At serve-write's open-loop rate the server sleeps between
// requests, so every request pays for a few such wake-ups or for none,
// depending on where the threads of that run happened to settle: the same
// binary and seed read a median cached query of 0.16 ms in one run and
// 0.25 ms in the next, and the workload's median in two modes 20 % apart.
// With every CPU kept awake by a spinning process of the lowest priority
// (what booting a benchmark host with idle=poll does) six runs in a row read
// within 7 %. The spinners take the CPU only while nothing else wants it.
// Only serve-write runs with them. serve-read's rate keeps the CPUs awake by
// itself, and there, as on cluster-gemm and lu-skew, they widened the spread.

// idleSpinArg makes this binary a spinner instead of the benchmark.
const idleSpinArg = "-idle-spin"

// keepAwake starts one spinner per CPU and returns the function that stops
// them and waits until they have ended.
func keepAwake(cpus int) (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stops []func()
	stop = func() {
		for _, s := range stops {
			s()
		}
	}
	for i := 0; i < cpus; i++ {
		cmd := exec.Command(exe, idleSpinArg)
		// A spinner ends when its standard input does: when stop closes the
		// pipe, or when this process is gone.
		stdin, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			stop()
			return nil, fmt.Errorf("starting an idle spinner: %w", err)
		}
		stops = append(stops, func() {
			stdin.Close()
			cmd.Wait() // its exit status says nothing
		})
	}
	return stop, nil
}

// idleSpin is the spinner: one thread at the lowest priority, busy until
// standard input ends.
func idleSpin() {
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runtime.LockOSThread() // on Linux the priority is the thread's
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: idle spinner:", err)
		os.Exit(1)
	}
	for {
	}
}
