//go:build race

package whodunit_test

// raceEnabled reports whether the test binary carries the race detector,
// whose instrumentation allocates: the allocation pins skip.
const raceEnabled = true
