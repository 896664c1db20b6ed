//go:build !race

package trace

import (
	"runtime"
	"testing"
)

// TestHeapBytesPerTraceEvent pins what a generated event costs the heap:
// the slope of bytes allocated against events between Gen of 20 000 and
// of 120 000 events, so the generator's fixed costs (key tables, Zipf
// table) cancel. A stored event is one 24-byte Record; the wide Event
// with its two string headers read about 56. Built without -race, whose
// instrumentation allocates: it reads the process's allocation counter.
func TestHeapBytesPerTraceEvent(t *testing.T) {
	alloc := func(events int) uint64 {
		cfg := CacheTrace()
		cfg.Events = events
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := Gen(cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tr)
		return after.TotalAlloc - before.TotalAlloc
	}
	b0, b1 := alloc(20_000), alloc(120_000)
	perEvent := float64(b1-b0) / 100_000
	t.Logf("%.1f bytes an event (%d and %d bytes)", perEvent, b0, b1)
	if perEvent > 26 {
		t.Fatalf("a generated trace event costs %.1f heap bytes, want at most 26", perEvent)
	}
}
