package vclock

// CPU models a multi-core processor. Compute requests occupy a core for
// their full duration, non-preemptively, in FIFO order of issue; when all
// cores are busy a request waits for the earliest core to free up. This is
// the contention model behind every throughput/saturation experiment.
type CPU struct {
	Name string

	sim      *Sim
	nextFree []Time   // per-core time at which the core becomes free
	busy     Duration // total core-occupancy accumulated
	stolen   Duration // occupancy injected by Preempt (slow-node faults)
}

// NewCPU returns a CPU with `cores` cores attached to s.
func (s *Sim) NewCPU(name string, cores int) *CPU {
	if cores < 1 {
		cores = 1
	}
	return &CPU{Name: name, sim: s, nextFree: make([]Time, cores)}
}

// Cores reports the number of cores.
func (c *CPU) Cores() int { return len(c.nextFree) }

// Busy reports the total core-occupancy time accumulated so far.
func (c *CPU) Busy() Duration { return c.busy }

// Utilization reports mean utilization over [0, now]: busy time divided by
// cores * elapsed. It is 0 before any time has passed.
func (c *CPU) Utilization() float64 {
	elapsed := int64(c.sim.now)
	if elapsed == 0 {
		return 0
	}
	return float64(c.busy) / (float64(len(c.nextFree)) * float64(elapsed))
}

// reserve books d of CPU starting no earlier than now and returns the time
// the computation finishes. It takes the first core that is free by now
// and only searches for the earliest-free core when none is. Cores are
// interchangeable and the clock is monotone, so a nextFree at or before
// now means "idle" whatever its value, now and at every later instant:
// the multiset of max(nextFree[i], now), which is all Preempt and any
// later reserve read, and every end time returned are those of a search
// for the minimum on every call. (That search compares stale, unordered
// values and mispredicts about once a core.)
func (c *CPU) reserve(d Duration) Time {
	s := c.sim
	s.count.Reserves++
	c.busy += d
	for i, free := range c.nextFree {
		if free <= s.now {
			end := s.now.Add(d)
			c.nextFree[i] = end
			return end
		}
	}
	s.count.ReservesQueued++
	best := 0
	for i := 1; i < len(c.nextFree); i++ {
		if c.nextFree[i] < c.nextFree[best] {
			best = i
		}
	}
	end := c.nextFree[best].Add(d)
	c.nextFree[best] = end
	return end
}

// Preempt steals d of CPU time on every core starting now: pending and
// future Compute requests finish at least d later, exactly as if a
// co-located process had hogged the whole machine — the slow-node fault.
// The stolen time is tracked separately from Busy, so application
// utilization figures keep their meaning; read it with Stolen. Callable
// from scheduler callbacks; it never blocks.
func (c *CPU) Preempt(d Duration) {
	if d <= 0 {
		return
	}
	for i := range c.nextFree {
		start := c.nextFree[i]
		if start < c.sim.now {
			start = c.sim.now
		}
		c.nextFree[i] = start.Add(d)
	}
	c.stolen += d * Duration(len(c.nextFree))
}

// Stolen reports the total core-occupancy injected by Preempt.
func (c *CPU) Stolen() Duration { return c.stolen }

// Compute consumes d of CPU time on c: the calling thread blocks until a
// core has executed its request. Zero and negative durations return
// immediately.
func (t *Thread) Compute(c *CPU, d Duration) {
	t.mustRun()
	t.park(t.coro.Compute(c, d, driveBody))
}
