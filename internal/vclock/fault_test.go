package vclock

import (
	"strings"
	"testing"
)

func TestKillParkedThreadRunsDefers(t *testing.T) {
	s := New()
	q := s.NewQueue("q")
	var unwound bool
	victim := s.Go("victim", func(th *Thread) {
		defer func() { unwound = true }()
		th.Get(q) // parks forever
		t.Error("victim ran past Get after kill")
	})
	s.At(Time(5*Millisecond), func() { s.Kill(victim) })
	s.Run()
	if !unwound {
		t.Fatal("killed thread's deferred function did not run")
	}
	if !victim.Dead() {
		t.Fatal("victim not marked dead")
	}
	if s.Live() != 0 {
		t.Fatalf("live = %d after kill, want 0", s.Live())
	}
	s.Shutdown()
}

func TestKillSleepingThreadSkipsStaleWake(t *testing.T) {
	s := New()
	var woke bool
	victim := s.Go("sleeper", func(th *Thread) {
		th.Sleep(10 * Millisecond)
		woke = true
	})
	// Keep another event pending so the sleeper parks instead of taking
	// the inline fast path, leaving a stale wake event in the heap.
	s.Go("other", func(th *Thread) { th.Sleep(20 * Millisecond) })
	s.At(Time(5*Millisecond), func() { s.Kill(victim) })
	s.Run()
	if woke {
		t.Fatal("killed sleeper woke up")
	}
	s.Shutdown()
}

func TestKillQueueWaiterDoesNotSwallowItems(t *testing.T) {
	s := New()
	q := s.NewQueue("q")
	var got any
	victim := s.Go("victim", func(th *Thread) {
		th.Get(q)
		t.Error("victim received an item after kill")
	})
	s.Go("survivor", func(th *Thread) {
		th.Sleep(Millisecond) // queue behind the victim in the waiter list
		got = th.Get(q)
	})
	s.At(Time(2*Millisecond), func() { s.Kill(victim) })
	s.At(Time(3*Millisecond), func() { q.Put("item") })
	s.Run()
	if got != "item" {
		t.Fatalf("survivor got %v, want the item the dead waiter would have taken", got)
	}
	s.Shutdown()
}

func TestKillReleasesDeferredLock(t *testing.T) {
	s := New()
	l := s.NewLock("l")
	q := s.NewQueue("q")
	var acquired bool
	victim := s.Go("victim", func(th *Thread) {
		th.Lock(l, Exclusive)
		defer th.Unlock(l)
		th.Get(q) // parks holding the lock
	})
	s.Go("waiter", func(th *Thread) {
		th.Sleep(Millisecond)
		th.Lock(l, Exclusive)
		acquired = true
		th.Unlock(l)
	})
	s.At(Time(2*Millisecond), func() { s.Kill(victim) })
	s.Run()
	if !acquired {
		t.Fatal("lock held by killed thread was never released to the waiter")
	}
	s.Shutdown()
}

func TestKillLockWaiterIsSkipped(t *testing.T) {
	s := New()
	l := s.NewLock("l")
	var acquired bool
	s.Go("holder", func(th *Thread) {
		th.Lock(l, Exclusive)
		th.Sleep(10 * Millisecond)
		th.Unlock(l)
	})
	victim := s.Go("victim", func(th *Thread) {
		th.Sleep(Millisecond)
		th.Lock(l, Exclusive)
		t.Error("killed waiter acquired the lock")
	})
	s.Go("behind", func(th *Thread) {
		th.Sleep(2 * Millisecond)
		th.Lock(l, Exclusive)
		acquired = true
		th.Unlock(l)
	})
	s.At(Time(5*Millisecond), func() { s.Kill(victim) })
	s.Run()
	if !acquired {
		t.Fatal("waiter behind the killed one never got the lock")
	}
	s.Shutdown()
}

func TestKillBeforeStartDropsThread(t *testing.T) {
	s := New()
	s.At(0, func() {}) // ensure the heap is non-empty before GoAt fires
	victim := s.GoAt(Time(10*Millisecond), "late", func(th *Thread) {
		t.Error("killed-before-start thread ran")
	})
	s.At(Time(Millisecond), func() { s.Kill(victim) })
	s.Run()
	if s.Live() != 0 {
		t.Fatalf("live = %d, want 0", s.Live())
	}
	s.Shutdown()
}

func TestSelfKillFromCallback(t *testing.T) {
	s := New()
	var after bool
	var victim *Thread
	victim = s.Go("self", func(th *Thread) {
		// The kill callback runs while this thread is blocked in its
		// Sleep, whose wake is still pending when the kill dispatches.
		th.Sleep(10 * Millisecond)
		after = true
	})
	s.At(Time(5*Millisecond), func() { s.Kill(victim) })
	s.Go("other", func(th *Thread) { th.Sleep(20 * Millisecond) })
	s.Run()
	if after {
		t.Fatal("self-killed thread resumed after its wake")
	}
	if s.Live() != 0 {
		t.Fatalf("live = %d, want 0", s.Live())
	}
	s.Shutdown()
}

func TestGetTimeoutExpires(t *testing.T) {
	s := New()
	q := s.NewQueue("q")
	var ok bool
	var at Time
	s.Go("getter", func(th *Thread) {
		_, ok = th.GetTimeout(q, 5*Millisecond)
		at = th.Now()
	})
	s.Run()
	if ok {
		t.Fatal("GetTimeout on an empty queue reported an item")
	}
	if at != Time(5*Millisecond) {
		t.Fatalf("timed out at %v, want 5ms", at)
	}
	s.Shutdown()
}

func TestGetTimeoutDelivers(t *testing.T) {
	s := New()
	q := s.NewQueue("q")
	var got any
	s.Go("getter", func(th *Thread) {
		got, _ = th.GetTimeout(q, 5*Millisecond)
	})
	s.At(Time(2*Millisecond), func() { q.Put("v") })
	s.Run()
	if got != "v" {
		t.Fatalf("got %v, want v", got)
	}
	s.Shutdown()
}

func TestGetTimeoutStaleTimerDoesNotFire(t *testing.T) {
	s := New()
	q := s.NewQueue("q")
	var vals []any
	s.Go("getter", func(th *Thread) {
		// First wait is satisfied before its timer fires; the thread is
		// waiting again (plain Get) when the stale timer event runs.
		v, ok := th.GetTimeout(q, 10*Millisecond)
		if !ok {
			t.Error("first GetTimeout timed out unexpectedly")
		}
		vals = append(vals, v)
		vals = append(vals, th.Get(q))
	})
	s.At(Time(Millisecond), func() { q.Put("a") })
	s.At(Time(20*Millisecond), func() { q.Put("b") })
	s.Run()
	if len(vals) != 2 || vals[0] != "a" || vals[1] != "b" {
		t.Fatalf("vals = %v, want [a b]", vals)
	}
	s.Shutdown()
}

func TestPreemptDelaysCompute(t *testing.T) {
	s := New()
	c := s.NewCPU("c", 2)
	var done Time
	s.Go("worker", func(th *Thread) {
		th.Sleep(Millisecond)
		th.Compute(c, Millisecond)
		done = th.Now()
	})
	s.At(0, func() { c.Preempt(5 * Millisecond) })
	s.Run()
	if done != Time(6*Millisecond) {
		t.Fatalf("compute finished at %v, want 6ms (5ms stall + 1ms work)", done)
	}
	if c.Stolen() != 10*Millisecond {
		t.Fatalf("stolen = %v, want 10ms (5ms x 2 cores)", c.Stolen())
	}
	if c.Busy() != Millisecond {
		t.Fatalf("busy = %v, want 1ms (stalls are not app work)", c.Busy())
	}
	s.Shutdown()
}

func TestCrashCaptureHaltsDispatch(t *testing.T) {
	s := New()
	var after bool
	s.Go("bomb", func(th *Thread) {
		th.Sleep(5 * Millisecond)
		panic("injected")
	})
	s.Go("bystander", func(th *Thread) {
		th.Sleep(10 * Millisecond)
		after = true
	})
	s.Run()
	c := s.Crashed()
	if c == nil {
		t.Fatal("crash not captured")
	}
	if c.Thread != "bomb" || c.Value != "injected" || c.At != Time(5*Millisecond) {
		t.Fatalf("crash = %+v", c)
	}
	if !strings.Contains(c.Error(), "injected") {
		t.Fatalf("crash error %q does not mention the panic value", c.Error())
	}
	if len(c.Stack) == 0 {
		t.Fatal("crash captured no stack")
	}
	if after {
		t.Fatal("dispatch continued past the crash")
	}
	s.Shutdown()
}

func TestCallbackCrashCaptured(t *testing.T) {
	s := New()
	s.At(Time(Millisecond), func() { panic("cb") })
	s.Run()
	c := s.Crashed()
	if c == nil || c.Thread != "(scheduler)" || c.Value != "cb" {
		t.Fatalf("crash = %+v", c)
	}
	s.Shutdown()
}

func TestKillDeterministic(t *testing.T) {
	// The same kill schedule must produce the same final state every run.
	run := func() (Time, int64) {
		s := New()
		q := s.NewQueue("q")
		rng := NewRNG(3)
		var victims []*Thread
		for i := 0; i < 8; i++ {
			victims = append(victims, s.Go("w", func(th *Thread) {
				for {
					th.Get(q)
					th.Sleep(Duration(rng.Intn(1000)) * Microsecond)
				}
			}))
		}
		for i := 0; i < 50; i++ {
			d := Duration(i) * Millisecond
			s.At(Time(d), func() { q.Put(i) })
		}
		s.At(Time(20*Millisecond), func() { s.Kill(victims[2]) })
		s.At(Time(25*Millisecond), func() { s.Kill(victims[5]) })
		s.RunFor(Time(60 * Millisecond))
		_, gets, _ := q.Stats()
		now := s.Now()
		s.Shutdown()
		return now, gets
	}
	t1, g1 := run()
	t2, g2 := run()
	if t1 != t2 || g1 != g2 {
		t.Fatalf("kill schedule diverged: (%v, %d) vs (%v, %d)", t1, g1, t2, g2)
	}
}
