package tpcw

import (
	"runtime"
	"testing"

	"whodunit"
	"whodunit/internal/workload"
)

// TestSteadyStateRequestAllocations pins the steady-state allocation
// cost of the three-tier request path, in the single deployment and in
// a replicated one run on one time domain. One envelope per client
// reused around the whole round trip, interned synopsis chains,
// precomputed servlet frame names and ID-interned CCT paths leave only
// amortized slice growth (simulator event heap, queue buffers) on the
// hot path — measured ~0.003 allocs/request. A regression that
// reintroduces a per-hop envelope, chain or frame-name allocation costs
// 1+ allocs per request and trips the bound by an order of magnitude.
//
// The window is cut out of one run by two scheduler callbacks reading
// the allocation counter, because a replicated app's pipes only exist
// once App.Run has armed them.
func TestSteadyStateRequestAllocations(t *testing.T) {
	for _, replicas := range []int{0, 2} {
		cfg := DefaultConfig(8)
		cfg.Replicas = replicas
		cfg.ThinkMean = 50 * whodunit.Millisecond
		// Read-only mix: row inserts (BuyConfirm) legitimately allocate.
		cfg.Mix = map[string]float64{
			workload.Home:          0.4,
			workload.ProductDetail: 0.3,
			workload.SearchRequest: 0.2,
			workload.ShoppingCart:  0.1,
		}
		// Warm up for 20 s: intern every chain and frame, grow trees,
		// queues and the event heap to steady-state capacity. Then
		// measure for 12 s.
		const warm, measured = 20 * whodunit.Second, 12 * whodunit.Second
		cfg.Duration = warm + measured + whodunit.Second
		sys := build(cfg)

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
		sys.finish()

		requests := completed[1] - completed[0]
		if requests < 100 {
			t.Fatalf("replicas=%d: only %d requests completed during measurement; workload misconfigured", replicas, requests)
		}
		perRequest := float64(mallocs[1]-mallocs[0]) / float64(requests)
		t.Logf("replicas=%d: %.3f allocs/request over %d requests", replicas, perRequest, requests)
		if perRequest >= 0.1 {
			t.Errorf("replicas=%d: steady-state request path allocates %.3f allocs/request, want < 0.1", replicas, perRequest)
		}
	}
}
