//go:build race

package shmflow

// raceEnabled reports whether the test binary carries the race detector,
// whose instrumentation allocates: the zero-allocation pins skip.
const raceEnabled = true
