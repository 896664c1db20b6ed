// Package vclock provides a deterministic discrete-event simulation
// substrate: a virtual clock, simulated threads, multi-core CPU resources,
// FIFO queues and reader/writer locks.
//
// Every experiment in this repository runs on virtual time so that results
// are reproducible bit-for-bit. Simulated threads are runtime coroutines
// (iter.Pull) or run-to-completion frame programs stepped inline by the
// dispatcher — never goroutines the Go scheduler picks between — and a
// Sim runs exactly one of them at a time, choosing the next runnable
// thread deterministically (earliest wake time, ties in scheduling
// order), so no data race or nondeterminism is possible as long as
// threads only communicate through vclock primitives.
package vclock

import "fmt"

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
)

// String renders the time as seconds with microsecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%d.%06ds", int64(t)/1e9, (int64(t)%1e9)/1000)
}

// Millis returns the duration in (fractional) milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

// Seconds returns the duration in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Add returns the time d later than t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }
