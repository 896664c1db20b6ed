package vclock

import (
	"fmt"
	"testing"
)

// BenchmarkThreadSwitch measures the cost of one blocking-operation
// hand-off — a queue Get parking the thread plus the Put-driven resume —
// under each coroutine engine. The program is the same two-coroutine
// ping-pong either way; only the control transfer differs: the coro
// engine invokes continuations inline on the dispatching stack, the
// goroutine engine pays a coroutine yield to the RunUntil loop and a
// next into the woken thread.
// The "ns/switch" metric counts each wake as one switch (two per round
// trip).
func BenchmarkThreadSwitch(b *testing.B) {
	for _, k := range []EngineKind{EngineCoro, EngineGoroutine} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			s := New()
			s.SetEngine(k)
			qa, qb := s.NewQueue("a"), s.NewQueue("b")
			var token any = struct{}{}
			rounds := 0
			var echoF, countF Frame
			echoF = func(c *Coro, v any) Step {
				qa.Put(v)
				return c.Get(qb, echoF)
			}
			countF = func(c *Coro, v any) Step {
				rounds++
				qb.Put(v)
				return c.Get(qa, countF)
			}
			s.GoCoro("echo", func(c *Coro, _ any) Step { return c.Get(qb, echoF) })
			s.GoCoro("count", func(c *Coro, _ any) Step {
				qb.Put(token)
				return c.Get(qa, countF)
			})
			target := 0
			stop := func() bool { return rounds >= target }
			target = 100 // warm-up: start both threads, settle capacities
			s.RunUntil(stop)
			b.ResetTimer()
			target = rounds + b.N
			s.RunUntil(stop)
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2), "ns/switch")
			s.Shutdown()
		})
	}
}

// BenchmarkGroupEpoch measures one epoch of the ring in ringLoad — four
// domains, one token per domain per epoch across the barrier — at three
// densities. One op is one epoch; the extra column says how heavy it
// was.
func BenchmarkGroupEpoch(b *testing.B) {
	for _, d := range []struct {
		tickers int
		period  Duration
	}{
		{2, Millisecond},         // ≈2 events per epoch per domain
		{16, 100 * Microsecond},  // ≈160
		{128, 100 * Microsecond}, // ≈1280
	} {
		perDomain := d.tickers * int(Millisecond/d.period)
		b.Run(fmt.Sprintf("events=%d", perDomain), func(b *testing.B) {
			g, _ := ringLoad(4, d.tickers, d.period, false)
			barriers, target := 0, 20 // warm-up: start threads, settle capacities
			stop := func() bool { barriers++; return barriers > target }
			g.RunUntil(stop)
			scheduled := func() (n uint64) {
				for i := 0; i < g.Domains(); i++ {
					n += g.Domain(i).seq
				}
				return n
			}
			before, seq := g.Stats().Epochs, scheduled()
			b.ReportAllocs()
			b.ResetTimer()
			barriers, target = 0, b.N
			g.RunUntil(stop)
			b.StopTimer()
			epochs := float64(g.Stats().Epochs - before)
			b.ReportMetric(float64(scheduled()-seq)/epochs, "events/epoch")
			g.Shutdown()
		})
	}
}

// holdModel is the classic hold model on the kernel's event queue,
// shaped like a closed-loop client population: `sleepers` events a 7 s
// mean think time away and six near ones a 100 µs mean away. One step
// pops the earliest event and pushes its successor — a sleeper sleeps
// again, a near event's successor is at the current instant 30 % of the
// time.
type holdModel struct {
	s   *Sim
	rng *RNG
	far *Thread // marks a sleeper's event
}

func newHoldModel(sleepers int) *holdModel {
	m := &holdModel{s: New(), rng: NewRNG(1), far: new(Thread)}
	for i := 0; i < sleepers; i++ {
		m.s.push(event{when: m.s.now.Add(m.rng.Exp(7 * Second)), t: m.far})
	}
	for i := 0; i < 6; i++ {
		m.s.push(event{when: m.s.now.Add(m.rng.Exp(100 * Microsecond))})
	}
	return m
}

func (m *holdModel) step() {
	s := m.s
	e := s.pop()
	s.now = e.when
	switch {
	case e.t == m.far:
		e.when = s.now.Add(m.rng.Exp(7 * Second))
	case m.rng.Intn(10) >= 3:
		e.when = s.now.Add(m.rng.Exp(100 * Microsecond))
	}
	s.push(e)
}

// BenchmarkEventQueueHold times one holdModel step at four populations.
// It is the package-level twin of the repository benchmark's
// vclock.sleep_deep_ns; moves/op is what the radix queue pays in place of
// comparisons — events a rebase re-files in a lower bucket, per event
// dispatched.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, sleepers := range []int{0, 200, 10_000, 1_000_000} {
		b.Run(fmt.Sprintf("sleepers=%d", sleepers), func(b *testing.B) {
			m := newHoldModel(sleepers)
			for i := 0; i < 2*sleepers+1000; i++ {
				m.step() // every sleeper has woken about once: the buckets are in steady state
			}
			moved := m.s.Counters().Moved
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.step()
			}
			b.StopTimer()
			b.ReportMetric(float64(m.s.Counters().Moved-moved)/float64(b.N), "moves/op")
		})
	}
}
