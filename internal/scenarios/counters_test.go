package scenarios

import (
	"testing"

	"whodunit"
	"whodunit/internal/apps/meshkv"
	"whodunit/internal/apps/tpcw"
)

// TestKernelCountersRepeatAndBalance: the simulator's counters are a
// function of the program — two runs of one configuration report the same
// numbers, on one time domain (a small TPC-W) and on five (the sharded
// mesh, where each domain counts on whichever goroutine ran its epoch) —
// and every scheduled event is accounted for: dispatched by kind,
// skipped, or still pending when the run stopped.
func TestKernelCountersRepeatAndBalance(t *testing.T) {
	p := Params{Seed: 3, Mode: whodunit.ModeWhodunit}
	small := tpcw.DefaultConfig(12)
	small.Duration = 5 * whodunit.Second
	small.ThinkMean = 200 * whodunit.Millisecond
	small.Seed = p.Seed
	for _, tc := range []struct {
		name string
		run  func() whodunit.KernelCounters
	}{
		{"tpcw", func() whodunit.KernelCounters { return tpcw.Run(small).Kernel }},
		{"mesh-mega sharded", func() whodunit.KernelCounters { return meshkv.Run(meshMegaConfig(p, true)).Kernel }},
	} {
		a, b := tc.run(), tc.run()
		if a != b {
			t.Errorf("%s: counters differ between two runs of one seed:\n%+v\n%+v", tc.name, a, b)
		}
		if got := a.Wakes + a.Starts + a.Kills + a.Callbacks + a.Deliveries + a.Skipped + a.Pending; got != a.Scheduled {
			t.Errorf("%s: %d events scheduled, %d accounted for: %+v", tc.name, a.Scheduled, got, a)
		}
		if a.Wakes == 0 || a.SleepsInline == 0 || a.FrameSteps == 0 || a.PendingMax == 0 || a.SameInstant == 0 {
			t.Errorf("%s: a counter the run must have moved reads zero: %+v", tc.name, a)
		}
		if a.Switches != 0 {
			t.Errorf("%s: %d thread switches; both models are frame programs", tc.name, a.Switches)
		}
	}
}
