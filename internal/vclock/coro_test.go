package vclock

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// forEachEngine runs f once per coroutine engine, as a subtest named
// after the engine. Tests using it pin that GoCoro programs behave
// identically whichever engine executes them.
func forEachEngine(t *testing.T, f func(t *testing.T, k EngineKind)) {
	for _, k := range []EngineKind{EngineCoro, EngineGoroutine} {
		k := k
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

// coroPinger is one side of a two-thread ping-pong over a pair of
// queues, written as a run-to-completion program: get the counter,
// record it, pass it back incremented, sleep a beat. Continuations are
// bound once at construction so the steady-state loop allocates nothing.
type coroPinger struct {
	name    string
	in, out *Queue
	rounds  int
	trace   *[]traceEntry
	starter bool

	loopF, getF Frame
}

func (p *coroPinger) begin(c *Coro, _ any) Step {
	if p.starter {
		p.out.Put(0)
	}
	return c.Get(p.in, p.loopF)
}

func (p *coroPinger) loop(c *Coro, v any) Step {
	*p.trace = append(*p.trace, traceEntry{p.name, c.Now(), v})
	n := v.(int)
	if n >= p.rounds {
		p.out.Put(n + 1)
		return c.End()
	}
	p.out.Put(n + 1)
	return c.Sleep(Microsecond, p.getF)
}

func (p *coroPinger) get(c *Coro, _ any) Step { return c.Get(p.in, p.loopF) }

// pingPongCoro builds and runs the ping-pong as GoCoro threads on the
// given engine and returns the observed trace.
func pingPongCoro(k EngineKind, rounds int) []traceEntry {
	s := New()
	s.SetEngine(k)
	qa, qb := s.NewQueue("a"), s.NewQueue("b")
	var trace []traceEntry
	a := &coroPinger{name: "a", in: qa, out: qb, rounds: rounds, trace: &trace, starter: true}
	b := &coroPinger{name: "b", in: qb, out: qa, rounds: rounds, trace: &trace}
	a.loopF, a.getF = a.loop, a.get
	b.loopF, b.getF = b.loop, b.get
	s.GoCoro("a", a.begin)
	s.GoCoro("b", b.begin)
	s.Run()
	s.Shutdown()
	return trace
}

// pingPongThreads is the identical program written against the blocking
// Thread API, for cross-checking the engines against the legacy path.
func pingPongThreads(rounds int) []traceEntry {
	s := New()
	qa, qb := s.NewQueue("a"), s.NewQueue("b")
	var trace []traceEntry
	body := func(name string, in, out *Queue, starter bool) func(*Thread) {
		return func(th *Thread) {
			if starter {
				out.Put(0)
			}
			for {
				v := th.Get(in)
				trace = append(trace, traceEntry{name, th.Now(), v})
				n := v.(int)
				out.Put(n + 1)
				if n >= rounds {
					return
				}
				th.Sleep(Microsecond)
			}
		}
	}
	s.Go("a", body("a", qa, qb, true))
	s.Go("b", body("b", qb, qa, false))
	s.Run()
	s.Shutdown()
	return trace
}

// TestCoroPingPongEngineParity: the same coroutine program produces the
// identical trace under both engines, and matches the blocking-API
// rendering of the same program.
func TestCoroPingPongEngineParity(t *testing.T) {
	const rounds = 50
	want := pingPongThreads(rounds)
	if len(want) == 0 {
		t.Fatal("empty reference trace")
	}
	for _, k := range []EngineKind{EngineCoro, EngineGoroutine} {
		got := pingPongCoro(k, rounds)
		if len(got) != len(want) {
			t.Fatalf("%v: trace length %d, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: trace[%d] = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

// TestCoroDeferOrder: Defer cleanups run last-registered-first when the
// program finishes, on both engines.
func TestCoroDeferOrder(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		var order []string
		s.GoCoro("w", func(c *Coro, _ any) Step {
			c.Defer(func() { order = append(order, "first") })
			c.Defer(func() { order = append(order, "second") })
			return c.End()
		})
		s.Run()
		s.Shutdown()
		if len(order) != 2 || order[0] != "second" || order[1] != "first" {
			t.Fatalf("cleanup order %v, want [second first]", order)
		}
	})
}

// TestCoroKillRunsDefers: Sim.Kill of a parked coroutine thread runs its
// Defer stack at the kill instant — the coroutine twin of
// TestKillParkedThreadRunsDefers — and the sim drains afterwards.
func TestCoroKillRunsDefers(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		q := s.NewQueue("q")
		var cleaned []Time
		th := s.GoCoro("victim", func(c *Coro, _ any) Step {
			c.Defer(func() { cleaned = append(cleaned, c.Now()) })
			return c.Get(q, func(c *Coro, _ any) Step { return c.End() })
		})
		s.After(5*Millisecond, func() { s.Kill(th) })
		s.Run()
		s.Shutdown()
		if len(cleaned) != 1 || cleaned[0] != Time(5*Millisecond) {
			t.Fatalf("cleanups ran at %v, want [5ms]", cleaned)
		}
		if s.Live() != 0 {
			t.Fatalf("live = %d, want 0", s.Live())
		}
	})
}

// TestCoroKillReleasesDeferredLock: a killed coroutine holding a lock
// through a Defer'd Unlock releases it, so the waiter proceeds — the
// fault plane's crash semantics hold for run-to-completion threads.
func TestCoroKillReleasesDeferredLock(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		l := s.NewLock("l")
		q := s.NewQueue("q")
		var acquired []Time
		holder := s.GoCoro("holder", func(c *Coro, _ any) Step {
			return c.Lock(l, Exclusive, func(c *Coro, _ any) Step {
				c.Defer(func() { c.Unlock(l) })
				return c.Get(q, func(c *Coro, _ any) Step { return c.End() })
			})
		})
		s.GoCoroAt(Time(Millisecond), "waiter", func(c *Coro, _ any) Step {
			return c.Lock(l, Exclusive, func(c *Coro, _ any) Step {
				acquired = append(acquired, c.Now())
				c.Unlock(l)
				return c.End()
			})
		})
		s.After(3*Millisecond, func() { s.Kill(holder) })
		s.Run()
		s.Shutdown()
		if len(acquired) != 1 || acquired[0] != Time(3*Millisecond) {
			t.Fatalf("waiter acquired at %v, want [3ms]", acquired)
		}
	})
}

// TestCoroFramePanicRecordsCrash: a panic escaping a frame is captured
// as the run's crash (dispatch halts), and the thread's cleanups run —
// exactly like a panicking goroutine body.
func TestCoroFramePanicRecordsCrash(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		cleaned := false
		s.GoCoro("bomb", func(c *Coro, _ any) Step {
			c.Defer(func() { cleaned = true })
			return c.Sleep(Millisecond, func(c *Coro, _ any) Step {
				panic("boom")
			})
		})
		s.Run()
		s.Shutdown()
		cr := s.Crashed()
		if cr == nil || cr.Thread != "bomb" || cr.At != Time(Millisecond) {
			t.Fatalf("crash = %+v, want bomb at 1ms", cr)
		}
		if !cleaned {
			t.Fatal("cleanups did not run after frame panic")
		}
	})
}

// TestCoroMissingStepPanics: a frame that returns a forged zero Step
// without calling a stepping operation is an immediate, attributed
// failure, not a wedged thread.
func TestCoroMissingStepPanics(t *testing.T) {
	s := New()
	s.SetEngine(EngineCoro)
	s.GoCoro("lazy", func(c *Coro, _ any) Step { return Step{} })
	s.Run()
	cr := s.Crashed()
	if cr == nil || !strings.Contains(crashText(cr), "without taking a step") {
		t.Fatalf("crash = %+v, want missing-step panic", cr)
	}
}

// TestCoroDoubleStepPanics: two stepping operations in one frame
// invocation fail loudly.
func TestCoroDoubleStepPanics(t *testing.T) {
	s := New()
	s.SetEngine(EngineCoro)
	s.GoCoro("greedy", func(c *Coro, _ any) Step {
		c.Sleep(Millisecond, func(c *Coro, _ any) Step { return c.End() })
		return c.End()
	})
	s.Run()
	cr := s.Crashed()
	if cr == nil || !strings.Contains(crashText(cr), "two steps") {
		t.Fatalf("crash = %+v, want double-step panic", cr)
	}
}

// TestCoroBlockingAPIMisusePanics: calling the goroutine blocking API
// from a run-to-completion thread fails loudly even when the call would
// have hit the inline fast path.
func TestCoroBlockingAPIMisusePanics(t *testing.T) {
	s := New()
	s.SetEngine(EngineCoro)
	s.GoCoro("confused", func(c *Coro, _ any) Step {
		c.Thread().Sleep(Millisecond) // must panic, not fast-path
		return c.End()
	})
	s.Run()
	cr := s.Crashed()
	if cr == nil || !strings.Contains(crashText(cr), "goroutine blocking API") {
		t.Fatalf("crash = %+v, want blocking-API misuse panic", cr)
	}
}

// TestAwaitReturnsWhatKReceives: Thread.Await hands back the value its
// op's continuation receives, whether the chain completes on the body's
// stack (no switch) or blocks and finishes on the dispatcher; a chain
// that ends the program instead of continuing into k fails loudly.
func TestAwaitReturnsWhatKReceives(t *testing.T) {
	s := New()
	q := s.NewQueue("q")
	q.Put(1)
	q.Put(7)
	// Take an item and hand k the item plus ten, after a sleep.
	getPlusTen := func(c *Coro, k Frame) Step {
		return c.Get(q, func(c *Coro, v any) Step {
			return c.Sleep(Millisecond, func(c *Coro, _ any) Step { return k(c, v.(int)+10) })
		})
	}
	var got []any
	var switches []int64
	s.Go("awaiter", func(th *Thread) {
		got = append(got, th.Await(getPlusTen)) // 1 is buffered, the sleep's wake is the next event: all inline
		switches = append(switches, s.Switches())
		// A Goto hands k nil, not the item the Get before it delivered.
		got = append(got, th.Await(func(c *Coro, k Frame) Step {
			return c.Get(q, func(c *Coro, _ any) Step { return c.Goto(k) })
		}))
		switches = append(switches, s.Switches())
		got = append(got, th.Await(getPlusTen)) // waits for the Put at 5 ms
		got = append(got, th.Now())
	})
	s.At(Time(5*Millisecond), func() { q.Put(2) })
	s.Run()
	if c := s.Crashed(); c != nil {
		t.Fatal(c)
	}
	if want := []any{11, nil, 12, Time(6 * Millisecond)}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Await returned %v, want %v", got, want)
	}
	// Only the start switched to the body: a chain that never blocks
	// runs on the body's stack.
	if fmt.Sprint(switches) != "[1 1]" {
		t.Errorf("switches after the first two Awaits = %v, want [1 1]", switches)
	}

	s = New()
	s.Go("ender", func(th *Thread) {
		th.Await(func(c *Coro, _ Frame) Step { return c.End() })
	})
	s.Run()
	if cr := s.Crashed(); cr == nil || !strings.Contains(crashText(cr), "ended the program") {
		t.Fatalf("crash = %+v, want the awaited-End panic", cr)
	}
}

// TestAwaitKilledRunsChainDeferFirst: a body killed while it waits
// inside an awaited chain — before or after the chain's first wake —
// runs the chain's Coro.Defer, then its own deferred functions, as a
// callee's cleanup runs before its caller's; nothing after the Await
// runs, and the thread is gone.
func TestAwaitKilledRunsChainDeferFirst(t *testing.T) {
	for _, killAt := range []Duration{Millisecond / 2, 2 * Millisecond} {
		s := New()
		never := s.NewQueue("never")
		var order []string
		victim := s.Go("victim", func(th *Thread) {
			defer func() { order = append(order, "body") }()
			th.Await(func(c *Coro, k Frame) Step {
				c.Defer(func() { order = append(order, "chain") })
				return c.Sleep(Millisecond, func(c *Coro, _ any) Step { return c.Get(never, k) })
			})
			order = append(order, "after Await")
		})
		s.At(Time(killAt), func() { s.Kill(victim) })
		s.Run()
		if c := s.Crashed(); c != nil {
			t.Fatal(c)
		}
		if fmt.Sprint(order) != "[chain body]" {
			t.Errorf("killed at %v: cleanups ran %v, want [chain body]", killAt, order)
		}
		if s.Live() != 0 {
			t.Errorf("killed at %v: %d threads live, want 0", killAt, s.Live())
		}
	}
}

func crashText(cr *Crash) string {
	if v, ok := cr.Value.(string); ok {
		return v
	}
	return cr.Error()
}

// TestCoroGetTimeout: both outcomes of a timed get — expiry with the
// TimedOut flag, and delivery in time — behave identically on both
// engines and match the blocking API's virtual timing.
func TestCoroGetTimeout(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		q := s.NewQueue("q")
		type obs struct {
			v        any
			timedOut bool
			at       Time
		}
		var got []obs
		record := func(c *Coro, v any) obs { return obs{v, c.TimedOut(), c.Now()} }
		s.GoCoro("waiter", func(c *Coro, _ any) Step {
			return c.GetTimeout(q, 2*Millisecond, func(c *Coro, v any) Step {
				got = append(got, record(c, v))
				return c.GetTimeout(q, 10*Millisecond, func(c *Coro, v any) Step {
					got = append(got, record(c, v))
					return c.End()
				})
			})
		})
		s.After(5*Millisecond, func() { q.Put("late") })
		s.Run()
		s.Shutdown()
		want := []obs{
			{nil, true, Time(2 * Millisecond)},
			{"late", false, Time(5 * Millisecond)},
		}
		if len(got) != len(want) {
			t.Fatalf("observations %+v, want %+v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("obs[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestCoroLockStatsParity: contended acquisition through c.Lock leaves
// the same lock statistics (acquired, contended, total wait) as the
// blocking Thread.Lock, on both engines.
func TestCoroLockStatsParity(t *testing.T) {
	run := func(build func(s *Sim, l *Lock)) (int64, int64, Duration) {
		s := New()
		l := s.NewLock("l")
		build(s, l)
		s.Run()
		s.Shutdown()
		return l.Stats()
	}
	wantAcq, wantCont, wantWait := run(func(s *Sim, l *Lock) {
		s.Go("h", func(th *Thread) {
			th.Lock(l, Exclusive)
			th.Sleep(4 * Millisecond)
			th.Unlock(l)
		})
		s.GoAt(Time(Millisecond), "w", func(th *Thread) {
			th.Lock(l, Exclusive)
			th.Unlock(l)
		})
	})
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		l := s.NewLock("l")
		s.GoCoro("h", func(c *Coro, _ any) Step {
			return c.Lock(l, Exclusive, func(c *Coro, _ any) Step {
				return c.Sleep(4*Millisecond, func(c *Coro, _ any) Step {
					c.Unlock(l)
					return c.End()
				})
			})
		})
		s.GoCoroAt(Time(Millisecond), "w", func(c *Coro, _ any) Step {
			return c.Lock(l, Exclusive, func(c *Coro, _ any) Step {
				c.Unlock(l)
				return c.End()
			})
		})
		s.Run()
		s.Shutdown()
		acq, cont, wait := l.Stats()
		if acq != wantAcq || cont != wantCont || wait != wantWait {
			t.Fatalf("stats = (%d, %d, %v), want (%d, %d, %v)",
				acq, cont, wait, wantAcq, wantCont, wantWait)
		}
	})
}

// TestYieldFIFOFairness: threads yielding at the same instant resume in
// strict FIFO order — the (when, seq) heap order guarantees round-robin
// progress, so no yielder can starve another. Pinned on both engines.
func TestYieldFIFOFairness(t *testing.T) {
	const workers, rounds = 3, 5
	names := []string{"a", "b", "c"}
	var want []string
	for r := 0; r < rounds; r++ {
		want = append(want, names...)
	}
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		var order []string
		for w := 0; w < workers; w++ {
			name := names[w]
			n := 0
			var loop Frame
			loop = func(c *Coro, _ any) Step {
				order = append(order, name)
				n++
				if n == rounds {
					return c.End()
				}
				return c.Yield(loop)
			}
			s.GoCoro(name, loop)
		}
		s.Run()
		s.Shutdown()
		if len(order) != len(want) {
			t.Fatalf("order %v, want %v", order, want)
		}
		for i := range order {
			if order[i] != want[i] {
				t.Fatalf("order[%d] = %q, want %q (full: %v)", i, order[i], want[i], order)
			}
		}
	})
	// The same program on the legacy blocking API keeps the same order.
	s := New()
	var order []string
	for w := 0; w < workers; w++ {
		name := names[w]
		s.Go(name, func(th *Thread) {
			for n := 0; n < rounds; n++ {
				order = append(order, name)
				if n < rounds-1 {
					th.Yield()
				}
			}
		})
	}
	s.Run()
	s.Shutdown()
	for i := range order {
		if order[i] != want[i] {
			t.Fatalf("thread order[%d] = %q, want %q (full: %v)", i, order[i], want[i], order)
		}
	}
}

// TestShutdownIdempotent: Shutdown unwinds every blocked thread exactly
// once, in creation order, and a second call finds nothing to do — on
// both engines, with Defer/defer cleanups observing the order.
func TestShutdownIdempotent(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		q := s.NewQueue("q")
		var unwound []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.GoCoro(name, func(c *Coro, _ any) Step {
				c.Defer(func() { unwound = append(unwound, name) })
				return c.Get(q, func(c *Coro, _ any) Step { return c.End() })
			})
		}
		s.Run()
		s.Shutdown()
		s.Shutdown() // must be a no-op, not a double unwind or a hang
		if len(unwound) != 3 || unwound[0] != "a" || unwound[1] != "b" || unwound[2] != "c" {
			t.Fatalf("unwound %v, want [a b c]", unwound)
		}
		if s.Live() != 0 {
			t.Fatalf("live = %d after double shutdown", s.Live())
		}
	})
}

// TestShutdownWithPendingKill: a thread marked dead by Sim.Kill whose
// kill event never dispatched (the run stopped first) is still unwound
// by Shutdown — its cleanups run exactly once.
func TestShutdownWithPendingKill(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		q := s.NewQueue("q")
		cleanups := 0
		th := s.GoCoro("victim", func(c *Coro, _ any) Step {
			c.Defer(func() { cleanups++ })
			return c.Get(q, func(c *Coro, _ any) Step { return c.End() })
		})
		s.Run() // parks the victim on q, then runs out of events
		s.Kill(th)
		// The kill event sits undispatched; Shutdown must cope.
		s.Shutdown()
		if cleanups != 1 {
			t.Fatalf("cleanups ran %d times, want 1", cleanups)
		}
		if s.Live() != 0 {
			t.Fatalf("live = %d, want 0", s.Live())
		}
	})
}

// TestShutdownWithTimedWaiter: a thread parked in GetTimeout leaves a
// pending timer callback in the heap; Shutdown unwinds the waiter
// without dispatching the timer, and resuming the sim afterwards lets
// the stale timer fire harmlessly (the waitGen guard drops it).
func TestShutdownWithTimedWaiter(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		q := s.NewQueue("q")
		resumed := false
		s.GoCoro("waiter", func(c *Coro, _ any) Step {
			return c.GetTimeout(q, 10*Millisecond, func(c *Coro, _ any) Step {
				resumed = true
				return c.End()
			})
		})
		// The no-op callback gives the run an event to stop on at 1ms, so
		// the 10ms timer is still undispatched when Shutdown runs.
		s.After(Millisecond, func() {})
		s.RunUntil(func() bool { return s.Now() >= Time(Millisecond) })
		s.Shutdown()
		if resumed {
			t.Fatal("waiter resumed during shutdown")
		}
		if s.Live() != 0 {
			t.Fatalf("live = %d, want 0", s.Live())
		}
		s.Run() // drain the stale timer; must not crash or wake anything
		if cr := s.Crashed(); cr != nil {
			t.Fatalf("stale timer crashed the sim: %v", cr)
		}
		if resumed {
			t.Fatal("stale timer resumed an unwound thread")
		}
	})
}

// TestShutdownNeverStartedThread: threads created but never dispatched
// (the run didn't reach their start event) are forgotten cleanly.
func TestShutdownNeverStartedThread(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k EngineKind) {
		s := New()
		s.SetEngine(k)
		started := false
		s.GoCoroAt(Time(Minute), "late", func(c *Coro, _ any) Step {
			started = true
			return c.End()
		})
		s.RunUntil(func() bool { return true }) // dispatch nothing
		s.Shutdown()
		if started {
			t.Fatal("thread started during shutdown")
		}
		if s.Live() != 0 {
			t.Fatalf("live = %d, want 0", s.Live())
		}
	})
}

// TestCoroSwitchZeroAllocs pins the headline property of both engines:
// a blocking operation plus the switch that continues the thread
// allocates nothing — inline frames under EngineCoro, a coroutine
// yield/next pair under EngineGoroutine. Two coroutines ping-pong a
// zero-size token through a queue pair; after warm-up (heap and waiter
// slices at steady capacity) whole batches of round trips must run
// allocation-free.
func TestCoroSwitchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	forEachEngine(t, func(t *testing.T, k EngineKind) {
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
		// Warm up: let slices reach steady capacity.
		target = 5000
		s.RunUntil(stop)
		const batch = 2000
		avg := testing.AllocsPerRun(20, func() {
			target = rounds + batch
			s.RunUntil(stop)
		})
		if avg != 0 {
			t.Fatalf("%.2f allocs per %d-round-trip batch, want 0 (each round trip is 2 block+switch pairs)", avg, batch)
		}
		s.Shutdown()
	})
}

// --- randomized cross-engine property test ---------------------------

// qop is one instruction of a randomized structured-blocking program.
type qop struct {
	op  int // 0 sleep, 1 put, 2 get, 3 getTimeout, 4 lock, 5 unlock, 6 compute, 7 yield
	q   int
	d   Duration
	val int
}

func decodeProg(raw []byte, id, maxLen int) []qop {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	prog := make([]qop, 0, len(raw))
	for i, b := range raw {
		prog = append(prog, qop{
			op:  int(b) % 8,
			q:   int(b>>3) % 2,
			d:   Duration(int(b>>4)%7) * Microsecond,
			val: id*1000 + i,
		})
	}
	return prog
}

// interp runs one program against the blocking Thread API, recording an
// observation after every blocking operation.
func interpThread(th *Thread, prog []qop, name string, qs []*Queue, lk *Lock, cpu *CPU, trace *[]traceEntry) {
	held := false
	rec := func(v any) { *trace = append(*trace, traceEntry{name, th.Now(), v}) }
	for _, in := range prog {
		switch in.op {
		case 0:
			th.Sleep(in.d)
			rec(nil)
		case 1:
			qs[in.q].Put(in.val)
		case 2:
			rec(th.Get(qs[in.q]))
		case 3:
			v, ok := th.GetTimeout(qs[in.q], in.d)
			rec([2]any{v, !ok})
		case 4:
			if !held {
				th.Lock(lk, Exclusive)
				held = true
				rec("lock")
			}
		case 5:
			if held {
				th.Unlock(lk)
				held = false
			}
		case 6:
			th.Compute(cpu, in.d)
			rec(nil)
		case 7:
			th.Yield()
			rec(nil)
		}
	}
}

// interpCoro is the same interpreter as a resumable program: a pc walks
// the instruction list, blocking ops park the coroutine and the resume
// frame records the observation — the same observations, in the same
// places, as interpThread.
type interpCoro struct {
	name  string
	prog  []qop
	pc    int
	last  int // op of the blocking instruction awaiting its observation
	held  bool
	qs    []*Queue
	lk    *Lock
	cpu   *CPU
	trace *[]traceEntry

	resumeF Frame
	k       Frame // awaited: where the program continues instead of End
}

func (it *interpCoro) rec(at Time, v any) {
	*it.trace = append(*it.trace, traceEntry{it.name, at, v})
}

func (it *interpCoro) resume(c *Coro, v any) Step {
	switch it.last {
	case 2:
		it.rec(c.Now(), v)
	case 3:
		it.rec(c.Now(), [2]any{v, c.TimedOut()})
	case 4:
		it.rec(c.Now(), "lock")
	default: // sleep, compute, yield
		it.rec(c.Now(), nil)
	}
	return it.step(c)
}

func (it *interpCoro) begin(c *Coro, _ any) Step { return it.step(c) }

func (it *interpCoro) step(c *Coro) Step {
	for {
		if it.pc >= len(it.prog) {
			if it.k != nil {
				return c.Goto(it.k)
			}
			return c.End()
		}
		in := it.prog[it.pc]
		it.pc++
		switch in.op {
		case 0:
			it.last = in.op
			return c.Sleep(in.d, it.resumeF)
		case 1:
			it.qs[in.q].Put(in.val)
		case 2:
			it.last = in.op
			return c.Get(it.qs[in.q], it.resumeF)
		case 3:
			it.last = in.op
			return c.GetTimeout(it.qs[in.q], in.d, it.resumeF)
		case 4:
			if !it.held {
				it.held = true
				it.last = in.op
				return c.Lock(it.lk, Exclusive, it.resumeF)
			}
		case 5:
			if it.held {
				c.Unlock(it.lk)
				it.held = false
			}
		case 6:
			it.last = in.op
			return c.Compute(it.cpu, in.d, it.resumeF)
		case 7:
			it.last = in.op
			return c.Yield(it.resumeF)
		}
	}
}

// interpRun executes the given per-thread programs and returns the
// merged observation trace plus the final clock. mode selects the
// rendering: plain goroutine bodies, coroutine programs on either
// engine, or goroutine bodies that each await their coroutine program
// as one chain.
func interpRun(progs [][]qop, mode string) ([]traceEntry, Time) {
	s := New()
	switch mode {
	case "coro":
		s.SetEngine(EngineCoro)
	case "goroutine":
		s.SetEngine(EngineGoroutine)
	}
	qs := []*Queue{s.NewQueue("q0"), s.NewQueue("q1")}
	lk := s.NewLock("lk")
	cpu := s.NewCPU("cpu", 1)
	var trace []traceEntry
	for i, prog := range progs {
		prog := prog
		name := string(rune('A' + i))
		if mode == "threads" {
			s.Go(name, func(th *Thread) {
				interpThread(th, prog, name, qs, lk, cpu, &trace)
			})
			continue
		}
		it := &interpCoro{name: name, prog: prog, qs: qs, lk: lk, cpu: cpu, trace: &trace}
		it.resumeF = it.resume
		if mode == "awaited" {
			s.Go(name, func(th *Thread) {
				th.Await(func(c *Coro, k Frame) Step {
					it.k = k
					return it.step(c)
				})
			})
			continue
		}
		s.GoCoro(name, it.begin)
	}
	s.Run()
	s.Shutdown()
	return trace, s.Now()
}

// TestQuickCoroEngineParity: for any three randomized structured-blocking
// programs over shared queues, a lock and a CPU, the observation trace
// and final clock are identical whether the programs run as goroutine
// bodies, as coroutines on the run-to-completion engine, as coroutines
// driven by goroutines, or as one chain each that a goroutine body
// awaits (Thread.Await).
func TestQuickCoroEngineParity(t *testing.T) {
	f := func(ra, rb, rc []byte) bool {
		progs := [][]qop{
			decodeProg(ra, 0, 14),
			decodeProg(rb, 1, 14),
			decodeProg(rc, 2, 14),
		}
		ref, refNow := interpRun(progs, "threads")
		for _, mode := range []string{"coro", "goroutine", "awaited"} {
			got, gotNow := interpRun(progs, mode)
			if gotNow != refNow || len(got) != len(ref) {
				return false
			}
			for i := range got {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
