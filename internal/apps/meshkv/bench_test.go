package meshkv

import (
	"runtime"
	"testing"

	"whodunit/internal/trace"
)

// BenchmarkMeshRequest measures the steady-state per-request cost of
// the full mesh pipeline — trace replay, ring routing, proxy hops,
// cache/DB tiers, and transaction propagation — amortised over a
// 2000-event replay, in the direct layout and with four replicated pods
// behind ingress hops. Both recycle every envelope, so allocs/request
// is each run's build and warm-up spread over its 2000 requests (about
// 0.7 direct and 2.7 replicated); an envelope per request would add 1.
func BenchmarkMeshRequest(b *testing.B) {
	gcfg := trace.CacheTrace()
	gcfg.Events = 2000
	tr := trace.Gen(gcfg)
	for _, bc := range []struct {
		name     string
		replicas int
	}{{"direct", 0}, {"replicated", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig(tr)
			cfg.Replicas = bc.replicas
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := Run(cfg)
				if res.Completed != int64(len(tr.Events)) {
					b.Fatalf("completed %d of %d", res.Completed, len(tr.Events))
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			reqs := float64(b.N) * float64(len(tr.Events))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/request")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/reqs, "allocs/request")
		})
	}
}
