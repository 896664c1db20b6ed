package vclock

// The crash and unwind paths through dispatch's one deferred function
// (frameCrashed), which replaced a recover per frame step. The loop runs
// on the RunUntil caller's stack only: a blocked free-form body never
// dispatches, so a frame's crash or a kill never unwinds through one.

import (
	"strings"
	"testing"
)

func frameCrashSite(c *Coro, _ any) Step { panic("boom in a frame") }

// crashingFrames starts, on s: "bomb", a run-to-completion thread that
// registers two cleanups, sleeps 1 ms and panics in frameCrashSite; and
// "bystander", one that would set *after at 2 ms. The cleanups append to
// *order, the first noting whether the crash was already on record.
func crashingFrames(s *Sim, order *[]string, after *bool) *Thread {
	bomb := s.GoCoro("bomb", func(c *Coro, _ any) Step {
		c.Defer(func() {
			if s.Crashed() != nil {
				*order = append(*order, "recorded before the cleanups")
			}
			*order = append(*order, "outer")
		})
		c.Defer(func() { *order = append(*order, "inner") })
		return c.Sleep(Millisecond, frameCrashSite)
	})
	s.GoCoro("bystander", func(c *Coro, _ any) Step {
		return c.Sleep(2*Millisecond, func(c *Coro, _ any) Step {
			*after = true
			return c.End()
		})
	})
	return bomb
}

func checkFrameCrash(t *testing.T, s *Sim, bomb *Thread, order []string, after bool) *Crash {
	t.Helper()
	cr := s.Crashed()
	if cr == nil || cr.Thread != "bomb" || cr.At != Time(Millisecond) || cr.Value != "boom in a frame" {
		t.Fatalf("crash = %+v, want bomb's panic at 1ms", cr)
	}
	if !strings.Contains(string(cr.Stack), "vclock.frameCrashSite") {
		t.Errorf("crash stack does not show the panicking frame:\n%s", cr.Stack)
	}
	if strings.Join(order, ",") != "inner,outer" {
		t.Errorf("cleanups ran as %v, want inner then outer, both before the crash was recorded", order)
	}
	if !bomb.exited || s.threads[bomb.ID] != nil {
		t.Error("the crashed thread was not exited")
	}
	if after || s.Now() != Time(Millisecond) || s.q.n == 0 {
		t.Errorf("dispatch went on past the crash: now %v, %d events pending, bystander ran: %v", s.Now(), s.q.n, after)
	}
	if s.stepping != nil {
		t.Errorf("stepping still names %s after the crash", s.stepping.Name)
	}
	return cr
}

// TestFrameCrashUnderDispatchRecover: a frame that panics mid-run is the
// run's crash, dispatched from the RunUntil loop also while a free-form
// body is blocked. The crash names the thread and the instant and shows
// the panic site, the Defer stack ran before the record, the thread is
// exited, nothing later is dispatched, no thread is left marked as
// stepping, and a blocked body stays blocked until Shutdown unwinds it.
//
// Mutant this test fails (applied by hand, see CHANGES.md): frameCrashed
// not clearing s.stepping.
func TestFrameCrashUnderDispatchRecover(t *testing.T) {
	t.Run("root dispatcher", func(t *testing.T) {
		s := New()
		var order []string
		var after bool
		bomb := crashingFrames(s, &order, &after)
		s.Run()
		cr := checkFrameCrash(t, s, bomb, order, after)
		if strings.Contains(string(cr.Stack), "vclock.(*Thread).park") {
			t.Errorf("the RunUntil loop was to dispatch this crash, not a parked thread:\n%s", cr.Stack)
		}
		s.Shutdown()
		if s.Live() != 0 {
			t.Fatalf("live = %d after Shutdown, want 0", s.Live())
		}
	})
	t.Run("body blocked", func(t *testing.T) {
		s := New()
		var order []string
		var after, resumed, unwound bool
		// The host starts first and blocks for 5 ms; bomb's frames are
		// stepped by the RunUntil loop all the same.
		s.Go("host", func(th *Thread) {
			defer func() { unwound = true }()
			th.Sleep(5 * Millisecond)
			resumed = true
		})
		bomb := crashingFrames(s, &order, &after)
		s.Run()
		cr := checkFrameCrash(t, s, bomb, order, after)
		if stack := string(cr.Stack); strings.Contains(stack, "vclock.(*Thread).park") || !strings.Contains(stack, "vclock.(*Sim).RunUntil") {
			t.Errorf("the RunUntil loop, not the parked host, was to dispatch this crash:\n%s", stack)
		}
		if resumed || unwound {
			t.Errorf("the blocked host did not stay blocked: resumed %v, unwound %v", resumed, unwound)
		}
		s.Shutdown()
		if !unwound || s.Live() != 0 {
			t.Fatalf("Shutdown left the host blocked: unwound %v, live %d", unwound, s.Live())
		}
	})
}

// TestCallbackCrashStillThroughRunCallback: a panicking callback is
// recovered where it always was, next to the call, and charged to the
// scheduler — frames that ran before it leave no thread marked as
// stepping for frameCrashed to blame.
func TestCallbackCrashStillThroughRunCallback(t *testing.T) {
	s := New()
	ticks := 0
	var tick Frame
	tick = func(c *Coro, _ any) Step {
		ticks++
		return c.Sleep(300*Microsecond, tick)
	}
	ticker := s.GoCoro("ticker", tick)
	s.At(Time(Millisecond), func() { panic("cb") })
	s.Run()
	cr := s.Crashed()
	if cr == nil || cr.Thread != "(scheduler)" || cr.Value != "cb" || cr.At != Time(Millisecond) {
		t.Fatalf("crash = %+v, want the scheduler's at 1ms", cr)
	}
	if !strings.Contains(string(cr.Stack), "vclock.(*Sim).runCallback") {
		t.Errorf("crash stack does not pass through runCallback:\n%s", cr.Stack)
	}
	if ticks != 4 || ticker.exited || s.stepping != nil {
		t.Errorf("ticks %d (want 4), ticker exited %v, stepping %v", ticks, ticker.exited, s.stepping)
	}
	s.Shutdown()
}

// TestKillOfSleepingBodyBesideFrames: a free-form body killed in its
// sleep while frames tick unwinds through its Defer stack, past
// frameCrashed untouched: its deferred functions run, it never resumes,
// nothing is recorded as a crash, and the frames go on being stepped.
func TestKillOfSleepingBodyBesideFrames(t *testing.T) {
	s := New()
	ticks := 0
	var tick Frame
	tick = func(c *Coro, _ any) Step {
		if ticks++; ticks == 20 {
			return c.End()
		}
		return c.Sleep(Millisecond, tick)
	}
	s.GoCoro("ticker", tick)
	var resumed, unwound bool
	host := s.Go("host", func(th *Thread) {
		defer func() { unwound = true }()
		th.Sleep(10 * Millisecond)
		resumed = true
	})
	s.At(Time(5*Millisecond+Millisecond/2), func() { s.Kill(host) })
	s.Run()
	if cr := s.Crashed(); cr != nil {
		t.Fatalf("a kill was recorded as a crash: %+v", cr)
	}
	if resumed || !unwound || !host.exited {
		t.Errorf("host resumed %v, unwound %v, exited %v; want killed in its sleep", resumed, unwound, host.exited)
	}
	if ticks != 20 || s.Live() != 0 || s.stepping != nil {
		t.Errorf("ticks %d (want 20), live %d, stepping %v", ticks, s.Live(), s.stepping)
	}
	s.Shutdown()
}
