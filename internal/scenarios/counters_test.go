package scenarios

import (
	"fmt"
	"testing"

	"whodunit"
	"whodunit/internal/apps/meshkv"
	"whodunit/internal/apps/tpcw"
	"whodunit/internal/mesh"
	"whodunit/internal/trace"
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

// deepChain is a mesh-deep-shaped run small enough for a test: seven
// tiers in a line on the app's one shared 4-core CPU, each computing,
// calling the next and computing again, fed by a replayed bursty trace.
// It returns the kernel's counters, how many positive-duration Computes
// the handlers issued, and per tier the requests served and the prefix
// searches its endpoint's Recv made.
func deepChain(seed uint64) (kernel whodunit.KernelCounters, computes uint64, handled []int64, lookups []uint64) {
	const tiers = 7
	app := whodunit.NewApp("chain", whodunit.WithMode(whodunit.ModeWhodunit), whodunit.WithSeed(seed), whodunit.WithCores(4))
	topo := mesh.New(app)
	svcs := make([]*mesh.Service, tiers)
	for k := tiers - 1; k >= 0; k-- {
		var down *mesh.Service
		if k+1 < tiers {
			down = svcs[k+1]
		}
		after := func(c *mesh.Call) {
			computes++
			c.Compute(100 * whodunit.Microsecond)
		}
		call := func(c *mesh.Call) {
			c.Invoke(down)
			c.Then(after)
		}
		svcs[k] = topo.Service(fmt.Sprint("tier-", k), 8, func(c *mesh.Call) {
			computes++
			c.Compute(whodunit.Duration(150+c.Req().Size%100) * whodunit.Microsecond)
			if down != nil {
				c.Then(call)
			}
		})
	}
	g := trace.MetaKV()
	g.Events, g.Seed = 400, seed
	trace.Replay(app, trace.Gen(g), func(ev trace.Event) {
		svcs[0].Inject(&mesh.Request{Op: ev.Op, Key: ev.Key, Size: ev.Size, Stream: ev.Stream})
	})
	app.Run()
	for _, s := range svcs {
		handled = append(handled, s.Handled())
		lookups = append(lookups, s.Stage().Endpoint().Lookups())
	}
	return app.KernelCounters(), computes, handled, lookups
}

// TestComputeAndLookupCounters: the two counters of what a hop pays that
// is not the hop. CPU.reserve counts every positive-duration Compute the
// model issued, and how many of them found every core busy, the same on
// two runs of one seed; and what a tier's Recv searches for no longer
// grows with the tier's depth — a request's chain is shorter than any
// chain the tier sends, so it costs no search at all, and a response
// costs the one that finds it.
func TestComputeAndLookupCounters(t *testing.T) {
	a, computes, handled, lookups := deepChain(3)
	b, _, _, _ := deepChain(3)
	if a != b {
		t.Errorf("counters differ between two runs of one seed:\n%+v\n%+v", a, b)
	}
	if a.Reserves != computes {
		t.Errorf("%d reserves for %d positive-duration Computes", a.Reserves, computes)
	}
	if a.ReservesQueued == 0 || a.ReservesQueued >= a.Reserves {
		t.Errorf("%d of %d reserves found every core busy; the bursty trace should make some wait and not all", a.ReservesQueued, a.Reserves)
	}
	leaf := len(handled) - 1
	for k, n := range handled {
		want := uint64(n) // the response of the one call each request makes
		if k == leaf {
			want = 0
		}
		if n != 400 || lookups[k] != want {
			t.Errorf("tier %d: %d prefix searches for %d requests, want %d for 400", k, lookups[k], n, want)
		}
	}
}
