package cct

import (
	"fmt"
	"testing"
)

// BenchmarkCCTAddSamples measures the per-sample CCT accumulation, the
// profiler's hot path: walk an interned depth-6 call path to its node
// and bump the counter. Each inner node of the path has fanout children
// and the path takes the one whose name sorts last, so a lookup scans
// them all; 14 is the widest fan-out a benchmark workload builds.
func BenchmarkCCTAddSamples(b *testing.B) {
	for _, fanout := range []int{1, 4, 14} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			b.ReportAllocs()
			tr := New("(bench)")
			path := make([]FrameID, 6)
			for d := range path {
				for k := 0; k < fanout; k++ {
					path[d] = tr.Frames().ID(fmt.Sprintf("d%d_%02d", d, k))
					tr.AddSamplesIDs(path[:d+1], 1)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.AddSamplesIDs(path, 1)
			}
		})
	}
}

// TestAddSamplesIDsZeroAllocSteadyState pins the allocation contract the
// profiler relies on.
func TestAddSamplesIDsZeroAllocSteadyState(t *testing.T) {
	tr := New("(t)")
	ids := []FrameID{tr.Frames().ID("a"), tr.Frames().ID("b"), tr.Frames().ID("c")}
	tr.AddSamplesIDs(ids, 1)
	if allocs := testing.AllocsPerRun(200, func() { tr.AddSamplesIDs(ids, 1) }); allocs != 0 {
		t.Fatalf("AddSamplesIDs allocates %.2f allocs/op in steady state, want 0", allocs)
	}
}
