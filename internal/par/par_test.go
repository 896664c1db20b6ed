package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	var hits [n]atomic.Int32
	Do(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestDoSerialWhenGOMAXPROCSOne(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	order := make([]int, 0, 10)
	Do(10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("serial mode out of order: %v", order)
		}
	}
}

func TestDoZeroItems(t *testing.T) {
	Do(0, func(int) { t.Fatal("fn called for n=0") })
}

func TestDoPropagatesPanic(t *testing.T) {
	prev := runtime.GOMAXPROCS(8) // force the pooled path even on a single-CPU runner
	defer func() {
		runtime.GOMAXPROCS(prev)
		r := recover()
		if r == nil {
			t.Fatal("worker panic not propagated")
		}
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", r)
		}
		if wp.Item != 17 || wp.Value != "boom" || len(wp.Stack) == 0 {
			t.Fatalf("WorkerPanic = item %d value %v stack %d bytes", wp.Item, wp.Value, len(wp.Stack))
		}
	}()
	Do(64, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}

func TestDoSerialPanicUnwrapped(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer func() {
		runtime.GOMAXPROCS(prev)
		if r := recover(); r != "boom" {
			t.Fatalf("serial panic = %v, want raw \"boom\"", r)
		}
	}()
	Do(4, func(i int) {
		if i == 2 {
			panic("boom")
		}
	})
}

// TestNestedDoBoundedConcurrency pins the global-budget property: nested
// fan-out (a sweep whose items shard work internally) must not multiply
// into workers² concurrent bodies — innermost executions stay bounded by
// GOMAXPROCS, because extra workers come from one process-wide budget
// and callers merely participate.
func TestNestedDoBoundedConcurrency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	var active, peak atomic.Int64
	Do(8, func(int) {
		Do(8, func(int) {
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			active.Add(-1)
		})
	})
	if got := peak.Load(); got > 4 {
		t.Fatalf("peak concurrent bodies = %d, want <= GOMAXPROCS (4)", got)
	}
}
