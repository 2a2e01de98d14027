//go:build !race

package cluster

// raceEnabled reports whether the race detector instruments this build, for
// tests whose allocation counting it would skew.
const raceEnabled = false
