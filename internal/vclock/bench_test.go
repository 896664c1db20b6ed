package vclock

import "testing"

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
