//go:build !race

package mesh_test

// raceEnabled reports whether the test binary carries the race detector,
// whose instrumentation allocates: the zero-allocation pin skips.
const raceEnabled = false
