// Worker pool for the experiment sweeps. Every experiment run (one
// simulated application at one configuration) is independent — it owns
// its simulator, profilers, context tables and RNG streams — so the
// client-count sweeps of Figures 11/12, the four profiling modes of
// Table 2 and the baseline/profiled pairs of §9.2/§9.3 all fan out
// across GOMAXPROCS workers through par.Do. fn must write its result
// into caller-owned storage by index and must not touch shared mutable
// state, so a sweep's output is bit-identical to the serial run
// (GOMAXPROCS=1) at the same seed.
package experiments

import (
	"bytes"
	"io"

	"whodunit/internal/par"
)

// Job is one named experiment for RunAll: Run renders the experiment's
// result into w.
type Job struct {
	Name string
	Run  func(w io.Writer)
}

// RunAll executes jobs across the worker pool, rendering each into its
// own buffer, and streams the buffers to w in job order (each followed
// by a blank line, matching the serial bench layout) as soon as a job
// and all its predecessors have finished — a long full-scale sweep
// produces output incrementally instead of going silent until the end.
// A panic in a job surfaces on the caller after the preceding jobs (and
// whatever the failing job managed to render) have been flushed, like a
// serial run crashing mid-table. The experiment binaries sweep every
// table and figure through this.
func RunAll(w io.Writer, jobs []Job) error {
	n := len(jobs)
	bufs := make([]bytes.Buffer, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var panicked any
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		defer func() { panicked = recover() }()
		par.Do(n, func(i int) {
			defer close(done[i])
			jobs[i].Run(&bufs[i])
		})
	}()
	for i := 0; i < n; i++ {
		select {
		case <-done[i]:
		case <-finished:
			if panicked != nil {
				// The pool stopped early; jobs after the failure never
				// signal. Re-raise on the caller, like a serial run.
				panic(panicked)
			}
			<-done[i] // pool drained normally, so every job signalled
		}
		if _, err := io.Copy(w, &bufs[i]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	<-finished
	if panicked != nil {
		panic(panicked)
	}
	return nil
}
