package meshkv

import (
	"runtime"
	"testing"

	"whodunit"
	"whodunit/internal/trace"
)

// TestSteadyStateRequestAllocations pins the steady-state allocation
// cost of the mesh request path in every layout: the single pipeline,
// the standard and the deep one, and four replicated pods fed through
// ingress hops on one time domain and on one domain per pod. Every
// completion puts its envelope back on the injector's free list, and
// the handlers and workers' continuations are bound at build time, so
// a warm request allocates nothing but amortized growth (event queue,
// queue buffers, the free list itself). An envelope allocated per
// request costs 1 alloc/request and trips the bound twentyfold.
//
// The window is cut out of one run by two scheduler callbacks reading
// the allocation counter, because a replicated app's pipes only exist
// once App.Run has armed them.
func TestSteadyStateRequestAllocations(t *testing.T) {
	g := trace.CacheTrace()
	g.Events = 10000 // 30 s of arrivals at 3 ms apart
	tr := trace.Gen(g)
	for _, tc := range []struct {
		name     string
		replicas int
		sharded  bool
		deep     bool
	}{
		{"direct", 0, false, false},
		{"replicated", 4, false, false},
		{"replicated-sharded", 4, true, false},
		{"deep", 0, false, true},
	} {
		cfg := DefaultConfig(tr)
		cfg.Replicas, cfg.Sharded, cfg.Deep = tc.replicas, tc.sharded, tc.deep
		if tc.replicas > 0 {
			cfg.Shards = 2
		}
		// Warm up for 12 s: intern every chain and frame, fill the
		// caches, grow trees, queues, the event queue and the free list
		// to steady-state capacity. Then measure for 12 s.
		const warm, measured = 12 * whodunit.Second, 12 * whodunit.Second
		sys := build(cfg)
		trace.Replay(sys.app, tr, sys.inject)

		var mallocs [2]uint64
		var completed [2]int64
		for i, at := range []whodunit.Duration{warm, warm + measured} {
			sys.app.Sim().At(whodunit.Time(at), func() {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				mallocs[i] = m.Mallocs
				for _, p := range sys.pods {
					completed[i] += p.completed
				}
			})
		}
		res := sys.finish(sys.app.Run())
		if res.Completed != int64(len(tr.Events)) {
			t.Fatalf("%s: completed %d of %d events", tc.name, res.Completed, len(tr.Events))
		}

		requests := completed[1] - completed[0]
		if requests < 1000 {
			t.Fatalf("%s: only %d requests completed during measurement; workload misconfigured", tc.name, requests)
		}
		perRequest := float64(mallocs[1]-mallocs[0]) / float64(requests)
		t.Logf("%s: %.4f allocs/request over %d requests", tc.name, perRequest, requests)
		if perRequest >= 0.05 {
			t.Errorf("%s: steady-state request path allocates %.4f allocs/request, want < 0.05", tc.name, perRequest)
		}
	}
}
