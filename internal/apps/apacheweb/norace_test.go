//go:build !race

package apacheweb

import (
	"runtime"
	"testing"

	"whodunit/internal/workload"
)

// TestHeapBytesPerFlow pins what a detected flow costs the heap over a
// run: the slope of bytes allocated against flows detected, between a
// 2 000- and a 12 000-connection run, so set-up and the fixed costs of
// a run cancel. A flow is one 28-byte FlowEvent in the tracker's log and
// one in the report's copy; at the 48-byte record of 64-bit ids the
// slope read about 97. Traces are generated before measuring. Not
// parallel, and built without -race, whose instrumentation allocates:
// it reads the process's allocation counter.
func TestHeapBytesPerFlow(t *testing.T) {
	run := func(conns int) (bytes uint64, flows int) {
		cfg := workload.DefaultWebConfig()
		cfg.NumConns = conns
		c := DefaultConfig(workload.GenWeb(cfg))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := Run(c)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, len(res.Flows)
	}
	b0, f0 := run(2_000)
	b1, f1 := run(12_000)
	if f1 <= f0 {
		t.Fatalf("%d flows at 2 000 connections, %d at 12 000", f0, f1)
	}
	perFlow := float64(b1-b0) / float64(f1-f0)
	t.Logf("%.1f bytes a flow (%d and %d flows, %d and %d bytes)", perFlow, f0, f1, b0, b1)
	if perFlow > 64 {
		t.Fatalf("a detected flow costs %.1f heap bytes, want at most 64", perFlow)
	}
}
