// Package par is the worker pool under Whodunit's parallel experiment
// sweeps. Work items are identified by dense indexes and results are
// written into caller-owned slots by index, so a sweep's output is
// bit-identical no matter how many workers run it or how the scheduler
// interleaves them — determinism comes from per-item seeding (every
// simulator run owns its RNG streams), not from execution order.
//
// The pool bounds concurrency globally, not per call: Do's calling
// goroutine always works through items itself, and extra workers are
// spawned only while the process-wide budget (GOMAXPROCS-1 extras) has
// room. Nested fan-out — a sweep of simulations whose workload
// generators shard internally — therefore cannot multiply into
// workers² concurrent simulations, and a nested Do can never deadlock:
// with no budget left it simply degrades to the caller running its items
// serially.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// extras counts spawned pool workers currently alive across every Do in
// the process (the callers' own goroutines are not counted — they were
// already running).
var extras atomic.Int64

// claimExtra reserves one extra-worker slot from the global budget of
// GOMAXPROCS-1, reporting whether one was available. GOMAXPROCS is read
// at each call: setting it to 1 forces serial execution, which the
// determinism regression tests use to run every sweep both ways.
func claimExtra() bool {
	budget := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		cur := extras.Load()
		if cur >= budget {
			return false
		}
		if extras.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// WorkerPanic wraps a panic that escaped a pool worker, preserving the
// failing item and the panicking goroutine's stack (the re-raise on the
// calling goroutine would otherwise lose it).
type WorkerPanic struct {
	Item  int
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic on item %d: %v\n%s", p.Item, p.Value, p.Stack)
}

// Do runs fn(i) for every i in [0, n) and returns when all calls have
// finished. The calling goroutine works through items itself; extra
// workers join while the global budget allows. Items are handed out
// through an atomic counter, so callers must not depend on execution
// order — write results into a preallocated slice by index. A panic in
// any fn stops further items from being dispatched (in-flight ones
// finish) and is re-raised on the calling goroutine as a *WorkerPanic
// carrying the original stack — simulated-application models report
// fatal misconfiguration by panicking, and those must neither vanish
// into a worker nor burn the rest of a long sweep first. (When Do runs
// fully serially — GOMAXPROCS=1 — panics propagate unwrapped with their
// natural stack.)
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked *WorkerPanic
	)
	loop := func() {
		for {
			panicMu.Lock()
			stop := panicked != nil
			panicMu.Unlock()
			if stop {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						if panicked == nil {
							panicked = &WorkerPanic{Item: i, Value: r, Stack: debug.Stack()}
						}
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	for spawned := 0; spawned < n-1 && claimExtra(); spawned++ {
		wg.Add(1)
		go func() {
			defer extras.Add(-1)
			defer wg.Done()
			loop()
		}()
	}
	loop()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
