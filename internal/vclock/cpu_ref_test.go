package vclock

// The differential oracle for CPU.reserve: refReserve is the search for
// the earliest-free core on every call that reserve was before it took
// the first idle core — kept, test-only, as the executable old
// definition. TestQuickReserveMatchesMinScan drives a CPU through each
// with one generated history and demands the same observable state.

import (
	"fmt"
	"slices"
	"testing"
)

func refReserve(c *CPU, d Duration) Time {
	best := 0
	for i := 1; i < len(c.nextFree); i++ {
		if c.nextFree[i] < c.nextFree[best] {
			best = i
		}
	}
	start := c.nextFree[best]
	if start < c.sim.now {
		start = c.sim.now
	}
	end := start.Add(d)
	c.nextFree[best] = end
	c.busy += d
	return end
}

// occupancy is what the rest of the simulator can observe of a CPU's
// cores: when each is free, no earlier than now, in no particular order.
func occupancy(c *CPU) []Time {
	out := make([]Time, len(c.nextFree))
	for i, f := range c.nextFree {
		out[i] = max(f, c.sim.now)
	}
	slices.Sort(out)
	return out
}

// TestQuickReserveMatchesMinScan: two CPUs of 1 to 8 cores on one clock,
// one booked through reserve and one through refReserve, see the same
// generated history — computations, clock advances (in one phase none at
// all: back-to-back saturation; in one slower than the demand; in one
// faster, so cores sit idle with stale, unordered nextFree values) and
// Preempts. After every operation the end time returned, Busy, Stolen
// and the occupancy multiset must be equal, although the two pick
// different cores; and ReservesQueued must count exactly the requests
// the old definition made wait.
//
// Mutants this test fails (applied by hand, see CHANGES.md): the fast
// path's test turned round (<= to >=, a busy core taken as idle) or made
// strict (<, a core free exactly now made to wait), the fast path
// passing over an idle core, the fast path not advancing the core it
// takes, the fallback taking core 0 without the search, and
// ReservesQueued bumped on the fast path. (The strict test and the
// misplaced bump leave every end time right; the queued count catches
// them.)
func TestQuickReserveMatchesMinScan(t *testing.T) {
	ops := 30_000
	if testing.Short() {
		ops = 6_000
	}
	const mean = 100 * Microsecond
	for cores := 1; cores <= 8; cores++ {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cores=%d/seed=%d", cores, seed), func(t *testing.T) {
				s := New()
				rng := NewRNG(seed*100 + uint64(cores))
				fast, ref := s.NewCPU("fast", cores), s.NewCPU("ref", cores)
				var gap Duration // mean clock advance per operation in this phase
				var idle, waited, diverged, preempts uint64
				for op := 0; op < ops; op++ {
					if op%500 == 0 {
						// Demand is one mean per operation over `cores` cores.
						gap = []Duration{0, mean / Duration(2*cores), 3 * mean / Duration(cores)}[rng.Intn(3)]
						if gap > mean/Duration(cores) {
							// The backlog of the phases before would outlast this
							// one: skip to where the last core falls idle.
							s.now = max(s.now, slices.Max(ref.nextFree))
						}
					}
					if gap > 0 && rng.Intn(4) > 0 {
						s.now = s.now.Add(rng.Exp(gap))
					}
					if rng.Intn(25) == 0 {
						d := rng.Exp(mean) - mean/4 // some zero and negative: no-ops
						fast.Preempt(d)
						ref.Preempt(d)
						preempts++
					} else {
						d := 1 + rng.Exp(mean)
						if slices.Min(ref.nextFree) > s.now {
							waited++
						} else {
							idle++
						}
						if got, want := fast.reserve(d), refReserve(ref, d); got != want {
							t.Fatalf("op %d at %v: reserve(%v) ends at %v, the search for the minimum at %v\nnextFree %v\nwant     %v",
								op, s.now, d, got, want, fast.nextFree, ref.nextFree)
						}
					}
					if fast.Busy() != ref.Busy() || fast.Stolen() != ref.Stolen() {
						t.Fatalf("op %d: busy %v stolen %v, reference %v and %v", op, fast.Busy(), fast.Stolen(), ref.Busy(), ref.Stolen())
					}
					if got, want := occupancy(fast), occupancy(ref); !slices.Equal(got, want) {
						t.Fatalf("op %d at %v: cores free at %v, reference %v", op, s.now, got, want)
					}
					if !slices.Equal(fast.nextFree, ref.nextFree) {
						diverged++
					}
				}
				c := s.Counters()
				if c.Reserves != idle+waited || c.ReservesQueued != waited {
					t.Errorf("counted %d reserves, %d queued; the reference served %d at once and made %d wait", c.Reserves, c.ReservesQueued, idle, waited)
				}
				if idle == 0 || waited == 0 || preempts == 0 || (cores > 1 && diverged == 0) {
					t.Errorf("the generator missed a case it is here for: %d served at once, %d waited, %d preempts, %d operations with the two picking different cores",
						idle, waited, preempts, diverged)
				}
			})
		}
	}
}

// BenchmarkCPUReserve prices one reserve either side of the fast path:
// idle is an open arrival stream at 30 % utilisation (a core is free and
// the others hold stale values), saturated is back-to-back demand on a
// clock that never moves (every core busy: the search runs).
func BenchmarkCPUReserve(b *testing.B) {
	const mean = 100 * Microsecond
	for _, cores := range []int{1, 4, 16} {
		for _, load := range []string{"idle", "saturated"} {
			b.Run(fmt.Sprintf("%s/cores=%d", load, cores), func(b *testing.B) {
				s := New()
				cpu := s.NewCPU("cpu", cores)
				rng := NewRNG(1)
				var gaps, demands [1024]Duration
				for i := range gaps {
					demands[i] = 1 + rng.Exp(mean)
					if load == "idle" {
						gaps[i] = rng.Exp(mean * 10 / Duration(3*cores))
					}
				}
				var sink Time
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.now = s.now.Add(gaps[i%len(gaps)])
					sink = cpu.reserve(demands[i%len(demands)])
				}
				_ = sink
				b.ReportMetric(float64(s.count.ReservesQueued)/float64(b.N), "queued/op")
			})
		}
	}
}
