//go:build !race

package whodunit_test

import (
	"runtime"
	"testing"

	"whodunit"
)

// TestServeRetiredWindowAllocs bounds the heap allocations a served app
// makes per retired window in steady state: simulation, retirement,
// stitching and the alert verdict of one 100 ms window of the two-stage
// serveApp. It is the difference between a 50-window and a 10-window
// run, so start-up cost cancels out. The count repeats to the
// allocation: the run is deterministic and nothing else allocates. A
// window costs about 41.8 allocations now that retirement decides the
// alert with a walk that allocates nothing and leaves the auto-diff to
// its first reader (WindowEvent.Diff), where it cost about 47.5 building
// every window's diff. That was after a profiler began to refill the
// trees and the slot array of the window before (Profiler.Recycle) and
// the stitcher to index the window on the stack, where it cost about 59
// with a new CCT (one allocation) per context and window, two maps per
// stitch and a new slice of stage dumps per report. Before that a new
// CCT took more than one allocation, a stage dump flattened each tree
// into arrays of its own, the stitched graph kept a slice per prefix,
// and a window cost about 73;
// rebuilding both sides' CCTs for every context of the diff, as it once
// did, costs about 94, a CCT for every graph node as well about 108,
// and with a label index made at every retirement and string-joined
// edge keys in the diff as well it cost about 123. Not parallel: it
// reads the process's malloc count.
func TestServeRetiredWindowAllocs(t *testing.T) {
	const bound = 44
	mallocs := func(windows int) uint64 {
		srv := whodunit.NewServer(serveApp(7), whodunit.ServeConfig{
			Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: windows,
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	perWindow := float64(mallocs(50)-mallocs(10)) / 40
	t.Logf("%.1f allocations per retired window", perWindow)
	if perWindow > bound {
		t.Fatalf("%.1f allocations per retired window, want at most %d", perWindow, bound)
	}
}
