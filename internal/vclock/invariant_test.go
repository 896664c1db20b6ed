package vclock

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// This file states the kernel's kill / shutdown / crash / hand-off
// invariants as tests. Each test names the invariant it checks; none of
// them depends on an event order beyond what the invariant itself says.

// TestKillMatrix — invariant K: wherever the victim is blocked and
// whoever dispatches its kill event,
//
//	K1 its deferred functions run exactly once,
//	K2 locks it held are released to the next waiter,
//	K3 Live() drops by exactly one,
//	K4 nothing scheduled for it afterwards wakes it: a queue item stays
//	   buffered, a timeout does nothing, a lock grant passes it by, a
//	   sleep's end is dropped.
func TestKillMatrix(t *testing.T) {
	const blocksAt, killAt = Time(5 * Millisecond), Time(10 * Millisecond)
	type env struct {
		s         *Sim
		q         *Queue
		contended *Lock
	}
	blocks := []struct {
		name string
		on   func(th *Thread, e *env)
	}{
		{"Get", func(th *Thread, e *env) { th.Get(e.q) }},
		{"GetTimeout", func(th *Thread, e *env) { th.GetTimeout(e.q, 50*Millisecond) }},
		{"Lock", func(th *Thread, e *env) { th.Lock(e.contended, Exclusive) }},
		{"Sleep", func(th *Thread, e *env) { th.Sleep(50 * Millisecond) }},
	}
	killers := []struct {
		name string
		// arm arranges the kill; self reports that the victim must call
		// Kill on itself just before it blocks.
		arm  func(e *env, victim *Thread, never *Queue)
		self bool
	}{
		{name: "callback", arm: func(e *env, victim *Thread, _ *Queue) {
			e.s.At(killAt, func() { e.s.Kill(victim) })
		}},
		// The killer is blocked in its Sleep when the kill event
		// dispatches, so two free-form bodies are parked at once.
		{name: "thread", arm: func(e *env, victim *Thread, never *Queue) {
			e.s.GoAt(killAt, "killer", func(k *Thread) {
				e.s.Kill(victim)
				k.Sleep(Millisecond)
				k.Get(never)
			})
		}},
		{name: "self", self: true, arm: func(*env, *Thread, *Queue) {}},
	}
	for _, b := range blocks {
		for _, k := range killers {
			t.Run(b.name+"/"+k.name, func(t *testing.T) {
				s := New()
				e := &env{s: s, q: s.NewQueue("q"), contended: s.NewLock("contended")}
				never := s.NewQueue("never")
				held := s.NewLock("held")
				defers, ranOn := 0, false
				var victim *Thread
				victim = s.Go("victim", func(th *Thread) {
					defer func() { defers++ }()
					th.Lock(held, Exclusive)
					defer th.Unlock(held)
					th.SleepUntil(blocksAt)
					if k.self {
						s.Kill(th)
					}
					b.on(th, e)
					ranOn = true
				})
				s.Go("owner", func(th *Thread) {
					th.Lock(e.contended, Exclusive)
					th.Sleep(30 * Millisecond)
					th.Unlock(e.contended)
					th.Get(never)
				})
				var heldAt, lateAt Time = -1, -1
				s.GoAt(Time(Millisecond), "waiter", func(th *Thread) {
					th.Lock(held, Exclusive)
					heldAt = th.Now()
					th.Get(never)
				})
				s.GoAt(Time(35*Millisecond), "late", func(th *Thread) {
					th.Lock(e.contended, Exclusive)
					lateAt = th.Now()
					th.Get(never)
				})
				k.arm(e, victim, never)
				var before, after int
				s.At(Time(4*Millisecond), func() { before = s.Live() })
				s.At(Time(12*Millisecond), func() { after = s.Live() })
				s.At(Time(40*Millisecond), func() { e.q.Put("late item") })
				s.RunFor(Time(100 * Millisecond))

				died := killAt
				if k.self {
					died = blocksAt
				}
				if c := s.Crashed(); c != nil {
					t.Fatalf("crash: %v\n%s", c, c.Stack)
				}
				if defers != 1 {
					t.Errorf("K1: deferred function ran %d times, want 1", defers)
				}
				if heldAt != died {
					t.Errorf("K2: waiter got the victim's lock at %v, want %v", heldAt, died)
				}
				if before-after != 1 {
					t.Errorf("K3: Live() went %d -> %d across the kill, want a drop of 1", before, after)
				}
				if ranOn {
					t.Error("K4: victim's body continued after the kill")
				}
				if e.q.Len() != 1 {
					t.Errorf("K4: queue holds %d items, want the 1 put after the kill", e.q.Len())
				}
				if e.contended.HeldBy(victim) || lateAt != Time(35*Millisecond) {
					t.Errorf("K4: contended lock passed to the dead victim (late locker acquired at %v)", lateAt)
				}
				s.Shutdown()
				if defers != 1 || s.Live() != 0 {
					t.Errorf("after Shutdown: defers = %d, live = %d, want 1 and 0", defers, s.Live())
				}
			})
		}
	}
}

// TestKillSkipsSameInstantWake — invariant K4 at a tie: a victim killed
// at the very instant its sleep ends does not run on, whether or not
// another thread is scheduled around it (alone on the Sim, the kill
// callback and the victim's own stale wake are the next two events).
func TestKillSkipsSameInstantWake(t *testing.T) {
	for _, neighbour := range []bool{false, true} {
		t.Run(fmt.Sprint("neighbour=", neighbour), func(t *testing.T) {
			s := New()
			var victim *Thread
			s.At(Time(Millisecond), func() { s.Kill(victim) }) // smaller seq than the wake below
			ranOn := false
			victim = s.Go("victim", func(th *Thread) {
				th.Sleep(Millisecond)
				ranOn = true
			})
			if neighbour {
				s.Go("neighbour", func(th *Thread) {
					for i := 0; i < 20; i++ {
						th.Sleep(100 * Microsecond)
					}
				})
			}
			s.Run()
			if ranOn {
				t.Fatal("victim ran past a sleep that ended at its kill instant")
			}
			if s.Live() != 0 {
				t.Fatalf("live = %d, want 0", s.Live())
			}
		})
	}
}

// TestShutdownInvariants — invariant S: Shutdown after a run that
// stopped early — a kill event still in the heap, a GetTimeout timer
// not yet due, a thread whose start lies in the future — unwinds the
// blocked threads in ID order, starts nothing, leaves no host goroutine
// behind, and is a no-op the second time. A victim that calls Kill on
// itself from a deferred function changes none of this.
func TestShutdownInvariants(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	never := s.NewQueue("never")
	var order []int
	blocked := func(name string, block func(th *Thread)) *Thread {
		return s.Go(name, func(th *Thread) {
			defer func() {
				s.Kill(th)
				order = append(order, th.ID)
			}()
			block(th)
		})
	}
	get := func(th *Thread) { th.Get(never) }
	blocked("a", get)
	b := blocked("b", get)
	blocked("timed", func(th *Thread) { th.GetTimeout(never, Second) })
	blocked("c", get)
	started := false
	s.GoAt(Time(Second), "future", func(*Thread) { started = true })
	s.At(Time(10*Millisecond), func() { s.Kill(b) })
	s.RunFor(Time(10 * Millisecond))

	if !b.Dead() || len(order) != 0 {
		t.Fatalf("setup: want b marked dead with its kill event undispatched (dead=%v, unwound=%v)", b.Dead(), order)
	}
	if n := runtime.NumGoroutine(); n != base+4 {
		t.Fatalf("setup: %d host goroutines, want %d (one coroutine per started thread)", n, base+4)
	}
	s.Shutdown()
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Errorf("unwind order %v, want ID order [0 1 2 3]", order)
	}
	if started {
		t.Error("Shutdown started a thread")
	}
	if s.Live() != 0 {
		t.Errorf("live = %d, want 0", s.Live())
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d host goroutines after Shutdown, want the %d from before New", n, base)
	}
	s.Shutdown()
	if len(order) != 4 {
		t.Errorf("second Shutdown unwound again: %v", order)
	}
}

func crashSite() { panic("boom at the site") }

// TestCrashInvariants — invariant C: a panic in a thread body is
// recorded with the stack of the panic site, no event after it is
// dispatched, and a repeat run halts with the heap in the same state.
func TestCrashInvariants(t *testing.T) {
	type halt struct {
		at         Time
		seq        uint64
		pending    int
		ticks      int
		afterCrash bool
	}
	run := func() (halt, *Crash) {
		s := New()
		var h halt
		s.Every(Millisecond, func() { h.ticks++ })
		q := s.NewQueue("q")
		s.Go("worker", func(th *Thread) {
			for {
				th.Get(q)
			}
		})
		s.Go("crasher", func(th *Thread) {
			for i := 0; i < 7; i++ {
				q.Put(i)
				th.Sleep(700 * Microsecond)
			}
			s.At(th.Now(), func() { h.afterCrash = true })
			crashSite()
		})
		s.RunFor(Time(Second))
		h.at, h.seq, h.pending = s.Now(), s.seq, s.q.n
		c := s.Crashed()
		s.Shutdown()
		return h, c
	}
	h1, c := run()
	if c == nil || c.Thread != "crasher" || c.Value != "boom at the site" || c.At != h1.at {
		t.Fatalf("crash = %+v, want crasher's panic at %v", c, h1.at)
	}
	if !strings.Contains(string(c.Stack), "vclock.crashSite") {
		t.Errorf("crash stack does not show the panic site:\n%s", c.Stack)
	}
	if h1.afterCrash {
		t.Error("an event scheduled at the crash instant was dispatched after the crash")
	}
	if h2, _ := run(); h2 != h1 {
		t.Errorf("repeat run halted at %+v, first at %+v", h2, h1)
	}
}

// TestBlockingCallOutsideOwnBody — invariant B: a blocking Thread method
// may only be called by that thread's own running body. From a scheduler
// callback, a stop predicate or another thread's body it panics with a
// message that names the thread — also when the call would complete on
// the spot (an item buffered, a free lock); it never switches coroutines
// from the wrong stack and never hangs.
func TestBlockingCallOutsideOwnBody(t *testing.T) {
	const want = "vclock: blocking call on thread sleeper from outside its running body"
	setup := func() (*Sim, *Thread) {
		s := New()
		never := s.NewQueue("never")
		return s, s.Go("sleeper", func(th *Thread) { th.Get(never) })
	}
	check := func(t *testing.T, s *Sim, thread string) {
		t.Helper()
		c := s.Crashed()
		if c == nil || c.Thread != thread || !strings.HasPrefix(fmt.Sprint(c.Value), want) {
			t.Fatalf("crash = %+v, want %q recorded against %s", c, want, thread)
		}
		s.Shutdown()
	}
	t.Run("callback", func(t *testing.T) {
		s, sleeper := setup()
		s.At(Time(Millisecond), func() { sleeper.Sleep(Millisecond) })
		s.Run()
		check(t, s, "(scheduler)")
	})
	t.Run("callback Get of a buffered item", func(t *testing.T) {
		s, sleeper := setup()
		full := s.NewQueue("full")
		full.Put("item")
		s.At(Time(Millisecond), func() { sleeper.Get(full) })
		s.Run()
		check(t, s, "(scheduler)")
	})
	t.Run("callback Lock of a free lock", func(t *testing.T) {
		s, sleeper := setup()
		free := s.NewLock("free")
		s.At(Time(Millisecond), func() { sleeper.Lock(free, Exclusive) })
		s.Run()
		check(t, s, "(scheduler)")
	})
	t.Run("callback Await", func(t *testing.T) {
		s, sleeper := setup()
		s.At(Time(Millisecond), func() {
			sleeper.Await(func(c *Coro, k Frame) Step { return c.Goto(k) })
		})
		s.Run()
		check(t, s, "(scheduler)")
	})
	t.Run("other thread", func(t *testing.T) {
		s, sleeper := setup()
		s.GoAt(Time(Millisecond), "meddler", func(*Thread) { sleeper.Get(s.NewQueue("empty")) })
		s.Run()
		check(t, s, "meddler")
	})
	// The RunUntil loop evaluates the predicate, never a blocked thread,
	// so the panic leaves RunUntil, as it does before Run.
	t.Run("stop predicate", func(t *testing.T) {
		s, sleeper := setup()
		s.Every(Millisecond, func() {})
		defer func() {
			if r := recover(); !strings.HasPrefix(fmt.Sprint(r), want) {
				t.Fatalf("panicked with %v, want %q", r, want)
			}
			if s.Crashed() != nil {
				t.Errorf("the predicate's panic was also recorded as a crash: %+v", s.Crashed())
			}
			s.Shutdown()
		}()
		s.RunUntil(func() bool {
			if s.Now() > 0 {
				sleeper.Sleep(Millisecond)
			}
			return false
		})
	})
	t.Run("before Run", func(t *testing.T) {
		_, sleeper := setup()
		defer func() {
			if r := recover(); !strings.HasPrefix(fmt.Sprint(r), want) {
				t.Fatalf("panicked with %v, want %q", r, want)
			}
		}()
		sleeper.Sleep(Millisecond)
	})
}

// goid reports the calling host goroutine's number.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestGroupSwitchesThreadsFromAnyWorker — invariant G: a thread's
// coroutine belongs to no host goroutine. A two-domain Group drives its
// domains from whichever goroutine calls RunUntil, and here every slice
// of the run is started from a goroutine of its own, so each slice
// switches to the same threads from goroutines that did not exist
// during the slice before. The run still matches the one-domain layout,
// driven from the test's goroutine in one go, byte for byte.
func TestGroupSwitchesThreadsFromAnyWorker(t *testing.T) {
	const epochs = 12
	run := func(domains int, sliced bool) (string, [2]map[string]bool) {
		g := NewGroup(domains)
		var traces [2][]string
		var drivers [2]map[string]bool
		for i := 0; i < 2; i++ {
			s := g.Domain(i * (domains - 1))
			drivers[i] = map[string]bool{}
			// The tick at k·Δ is its epoch's earliest event, so it runs on
			// the domain's RunUntil loop itself: the goroutine that goes
			// on to switch to the domain's thread.
			s.Every(Millisecond, func() { drivers[i][goid()] = true })
		}
		in := [2]*Queue{g.Domain(0).NewQueue("in0"), g.Domain(domains - 1).NewQueue("in1")}
		out := [2]*Link{
			g.Connect(g.Domain(0), in[1], Millisecond),
			g.Connect(g.Domain(domains-1), in[0], Millisecond),
		}
		for i := 0; i < 2; i++ {
			g.Domain(i*(domains-1)).Go(fmt.Sprint("peer", i), func(th *Thread) {
				for n := i; ; n += 2 {
					out[i].Send(n)
					th.Sleep(370 * Microsecond) // several switches per epoch, never on the Δ grid
					th.Sleep(370 * Microsecond)
					traces[i] = append(traces[i], fmt.Sprint(th.Name, " ", th.Now(), " ", th.Get(in[i])))
				}
			})
		}
		until := func(ms int) func() bool { return func() bool { return g.Now() >= Time(ms)*Time(Millisecond) } }
		if !sliced {
			g.RunUntil(until(epochs))
		}
		for k := 1; sliced && k <= epochs; k++ {
			done := make(chan struct{})
			go func() {
				defer close(done)
				g.RunUntil(until(k))
			}()
			<-done
		}
		g.Shutdown()
		return fmt.Sprint(traces), drivers
	}
	serial, _ := run(1, false)
	sharded, drivers := run(2, true)
	if serial != sharded {
		t.Fatalf("sliced two-domain run differs from the one-domain run:\n%s\n%s", serial, sharded)
	}
	if len(serial) < 100 {
		t.Fatalf("trace too short to mean anything: %s", serial)
	}
	if len(drivers[0]) < 2 || len(drivers[1]) < 2 {
		t.Fatalf("a domain was driven by a single goroutine (%v); the test did not exercise cross-goroutine switches", drivers)
	}
}
