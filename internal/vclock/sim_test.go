package vclock

import "testing"

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("new sim clock = %v, want 0", s.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var woke Time
	s.Go("sleeper", func(th *Thread) {
		th.Sleep(5 * Millisecond)
		woke = th.Now()
	})
	s.Run()
	if woke != Time(5*Millisecond) {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
}

func TestThreadsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Go(name, func(th *Thread) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					th.Sleep(Millisecond)
				}
			})
		}
		s.Run()
		return order
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("run %d produced %d steps, want %d", trial, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d diverged at step %d: %q vs %q", trial, i, got[i], first[i])
			}
		}
	}
	// Same wake time, creation-order tie-break.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q (full: %v)", i, first[i], want[i], first)
		}
	}
}

func TestAtCallbackRunsAtScheduledTime(t *testing.T) {
	s := New()
	var at Time
	s.At(Time(7*Millisecond), func() { at = s.Now() })
	s.Run()
	if at != Time(7*Millisecond) {
		t.Fatalf("callback ran at %v, want 7ms", at)
	}
}

func TestRunForStopsEarly(t *testing.T) {
	s := New()
	ticks := 0
	s.Go("ticker", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Sleep(Millisecond)
			ticks++
		}
	})
	s.RunFor(Time(10 * Millisecond))
	if ticks >= 100 {
		t.Fatalf("RunFor did not stop early: %d ticks", ticks)
	}
	if s.Now() > Time(11*Millisecond) {
		t.Fatalf("clock overshot: %v", s.Now())
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	s := New()
	q := s.NewQueue("q")
	var got []int
	s.Go("consumer", func(th *Thread) {
		for i := 0; i < 3; i++ {
			got = append(got, th.Get(q).(int))
		}
	})
	s.Go("producer", func(th *Thread) {
		for i := 1; i <= 3; i++ {
			th.Sleep(Millisecond)
			q.Put(i)
		}
	})
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("consumer got %v, want [1 2 3]", got)
	}
}

func TestQueueBufferedBeforeGet(t *testing.T) {
	s := New()
	q := s.NewQueue("q")
	q.Put("x")
	q.Put("y")
	var got []string
	s.Go("c", func(th *Thread) {
		got = append(got, th.Get(q).(string), th.Get(q).(string))
	})
	s.Run()
	if got[0] != "x" || got[1] != "y" {
		t.Fatalf("got %v, want [x y]", got)
	}
	if q.Len() != 0 {
		t.Fatalf("queue should be drained, len=%d", q.Len())
	}
}

func TestQueueNilItemDelivered(t *testing.T) {
	s := New()
	q := s.NewQueue("q")
	delivered := false
	s.Go("c", func(th *Thread) {
		v := th.Get(q)
		if v != nil {
			t.Errorf("got %v, want nil item", v)
		}
		delivered = true
	})
	s.Go("p", func(th *Thread) {
		th.Sleep(Millisecond)
		q.Put(nil)
	})
	s.Run()
	if !delivered {
		t.Fatal("nil item was not delivered")
	}
}

func TestCPUSingleCoreSerializes(t *testing.T) {
	s := New()
	cpu := s.NewCPU("cpu", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Go("w", func(th *Thread) {
			th.Compute(cpu, 10*Millisecond)
			ends = append(ends, th.Now())
		})
	}
	s.Run()
	want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("end[%d] = %v, want %v", i, ends[i], want[i])
		}
	}
	if cpu.Busy() != 30*Millisecond {
		t.Fatalf("busy = %v, want 30ms", cpu.Busy())
	}
}

func TestCPUMultiCoreParallel(t *testing.T) {
	s := New()
	cpu := s.NewCPU("cpu", 2)
	var ends []Time
	for i := 0; i < 2; i++ {
		s.Go("w", func(th *Thread) {
			th.Compute(cpu, 10*Millisecond)
			ends = append(ends, th.Now())
		})
	}
	s.Run()
	for i, e := range ends {
		if e != Time(10*Millisecond) {
			t.Fatalf("end[%d] = %v, want 10ms (parallel)", i, e)
		}
	}
	if u := cpu.Utilization(); u != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
}

func TestCPUZeroDurationNoop(t *testing.T) {
	s := New()
	cpu := s.NewCPU("cpu", 1)
	s.Go("w", func(th *Thread) {
		th.Compute(cpu, 0)
		if th.Now() != 0 {
			t.Errorf("zero compute advanced clock to %v", th.Now())
		}
	})
	s.Run()
}

func TestExclusiveLockSerializes(t *testing.T) {
	s := New()
	l := s.NewLock("mtx")
	cpu := s.NewCPU("cpu", 4)
	var sections [][2]Time
	for i := 0; i < 3; i++ {
		s.Go("w", func(th *Thread) {
			th.Lock(l, Exclusive)
			start := th.Now()
			th.Compute(cpu, 10*Millisecond)
			sections = append(sections, [2]Time{start, th.Now()})
			th.Unlock(l)
		})
	}
	s.Run()
	if len(sections) != 3 {
		t.Fatalf("expected 3 critical sections, got %d", len(sections))
	}
	for i := 1; i < len(sections); i++ {
		if sections[i][0] < sections[i-1][1] {
			t.Fatalf("critical sections overlap: %v then %v", sections[i-1], sections[i])
		}
	}
}

func TestSharedLockAllowsConcurrency(t *testing.T) {
	s := New()
	l := s.NewLock("rw")
	cpu := s.NewCPU("cpu", 4)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Go("r", func(th *Thread) {
			th.Lock(l, Shared)
			th.Compute(cpu, 10*Millisecond)
			ends = append(ends, th.Now())
			th.Unlock(l)
		})
	}
	s.Run()
	for i, e := range ends {
		if e != Time(10*Millisecond) {
			t.Fatalf("reader %d ended at %v, want 10ms (concurrent)", i, e)
		}
	}
}

func TestWriterBlocksAndIsNotStarved(t *testing.T) {
	s := New()
	l := s.NewLock("rw")
	var order []string
	// Reader holds 0-10ms; writer arrives at 1ms; second reader arrives at
	// 2ms and must queue behind the writer (FIFO), not jump in.
	s.Go("r1", func(th *Thread) {
		th.Lock(l, Shared)
		th.Sleep(10 * Millisecond)
		th.Unlock(l)
		order = append(order, "r1-done")
	})
	s.GoAt(Time(Millisecond), "w", func(th *Thread) {
		th.Lock(l, Exclusive)
		order = append(order, "w-acquired")
		th.Sleep(5 * Millisecond)
		th.Unlock(l)
	})
	s.GoAt(Time(2*Millisecond), "r2", func(th *Thread) {
		th.Lock(l, Shared)
		order = append(order, "r2-acquired")
		th.Unlock(l)
	})
	s.Run()
	want := []string{"r1-done", "w-acquired", "r2-acquired"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

type recordingObserver struct {
	waits    []Duration
	blockers [][]*Thread
}

func (o *recordingObserver) LockAcquired(l *Lock, t *Thread, m LockMode, w Duration, b []*Thread) {
	if w > 0 {
		o.waits = append(o.waits, w)
		o.blockers = append(o.blockers, b)
	}
}
func (o *recordingObserver) LockReleased(l *Lock, t *Thread, m LockMode, h Duration) {}

func TestLockObserverSeesWaitAndBlocker(t *testing.T) {
	s := New()
	l := s.NewLock("mtx")
	obs := &recordingObserver{}
	l.Observer = obs
	var holder *Thread
	holder = s.Go("holder", func(th *Thread) {
		th.Lock(l, Exclusive)
		th.Sleep(8 * Millisecond)
		th.Unlock(l)
	})
	s.GoAt(Time(2*Millisecond), "waiter", func(th *Thread) {
		th.Lock(l, Exclusive)
		th.Unlock(l)
	})
	s.Run()
	if len(obs.waits) != 1 {
		t.Fatalf("observer saw %d waits, want 1", len(obs.waits))
	}
	if obs.waits[0] != 6*Millisecond {
		t.Fatalf("wait = %v, want 6ms", obs.waits[0])
	}
	if len(obs.blockers[0]) != 1 || obs.blockers[0][0] != holder {
		t.Fatalf("blockers = %v, want [holder]", obs.blockers[0])
	}
}

func TestRecursiveLockPanics(t *testing.T) {
	s := New()
	l := s.NewLock("mtx")
	panicked := false
	s.Go("w", func(th *Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		th.Lock(l, Exclusive)
		th.Lock(l, Exclusive)
	})
	s.Run()
	if !panicked {
		t.Fatal("recursive lock did not panic")
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	s := New()
	l := s.NewLock("mtx")
	panicked := false
	s.Go("w", func(th *Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		th.Unlock(l)
	})
	s.Run()
	if !panicked {
		t.Fatal("unlock by non-holder did not panic")
	}
}

func TestShutdownReleasesBlockedThreads(t *testing.T) {
	s := New()
	q := s.NewQueue("never")
	cleaned := false
	s.Go("stuck", func(th *Thread) {
		defer func() { cleaned = true }()
		th.Get(q) // blocks forever
	})
	s.Run()
	if s.Live() != 1 {
		t.Fatalf("live = %d, want 1 blocked thread", s.Live())
	}
	s.Shutdown()
	if s.Live() != 0 {
		t.Fatalf("live after shutdown = %d, want 0", s.Live())
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run during shutdown")
	}
}

func TestLockStats(t *testing.T) {
	s := New()
	l := s.NewLock("mtx")
	s.Go("a", func(th *Thread) {
		th.Lock(l, Exclusive)
		th.Sleep(4 * Millisecond)
		th.Unlock(l)
	})
	s.GoAt(Time(Millisecond), "b", func(th *Thread) {
		th.Lock(l, Exclusive)
		th.Unlock(l)
	})
	s.Run()
	acq, cont, wait := l.Stats()
	if acq != 2 || cont != 1 || wait != 3*Millisecond {
		t.Fatalf("stats = (%d, %d, %v), want (2, 1, 3ms)", acq, cont, wait)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs agree on %d/100 draws", same)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	var sum Duration
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(10 * Millisecond)
	}
	mean := Duration(float64(sum) / float64(n))
	if mean < 9500*Microsecond || mean > 10500*Microsecond {
		t.Fatalf("exp mean = %v, want ~10ms", mean.Millis())
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(9)
	z := NewZipfTable(1000, 1.0)
	counts := make([]int, 1000)
	for i := 0; i < 50000; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] < counts[1] || counts[1] < counts[10] {
		t.Fatalf("zipf not skewed: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
	if counts[0] == 0 || counts[0] < 50000/20 {
		t.Fatalf("rank 0 count %d implausibly small", counts[0])
	}
}

func TestPickWeighted(t *testing.T) {
	r := NewRNG(11)
	w := []float64{0.1, 0.9}
	counts := [2]int{}
	for i := 0; i < 10000; i++ {
		counts[r.Pick(w)]++
	}
	if counts[1] < 8500 || counts[1] > 9500 {
		t.Fatalf("weighted pick off: %v", counts)
	}
}

// TestRunUntilReentrancyPanics: a nested RunUntil (from a callback or a
// stop predicate) would clear the outer run's dispatch state on return,
// silently truncating the simulation — it must panic instead.
func TestRunUntilReentrancyPanics(t *testing.T) {
	s := New()
	recovered := false
	s.At(0, func() {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		s.Run()
	})
	s.Go("w", func(th *Thread) { th.Sleep(Millisecond) })
	s.Run()
	s.Shutdown()
	if !recovered {
		t.Fatal("nested Run did not panic")
	}
}

// TestSwitchesCountsFreeFormHandOffs: Switches counts the resumptions of
// a free-form body — two per round trip of a two-thread ping-pong — and
// nothing else: the same ping-pong written as frames reads 0.
func TestSwitchesCountsFreeFormHandOffs(t *testing.T) {
	pingPong := func(rounds int, frames bool) int64 {
		s := New()
		ping, pong := s.NewQueue("ping"), s.NewQueue("pong")
		if frames {
			var serve, bounce, hit Frame
			serve = func(c *Coro, _ any) Step { return c.Get(ping, bounce) }
			bounce = func(c *Coro, v any) Step { pong.Put(v); return c.Get(ping, bounce) }
			n := 0
			hit = func(c *Coro, _ any) Step {
				if n == rounds {
					return c.End()
				}
				n++
				ping.Put(n)
				return c.Get(pong, hit)
			}
			s.GoCoro("server", serve)
			s.GoCoro("client", hit)
		} else {
			s.Go("server", func(th *Thread) {
				for {
					pong.Put(th.Get(ping))
				}
			})
			s.Go("client", func(th *Thread) {
				for i := 0; i < rounds; i++ {
					ping.Put(i)
					th.Get(pong)
				}
			})
		}
		s.Run()
		s.Shutdown()
		return s.Switches()
	}
	if a, b := pingPong(100, false), pingPong(300, false); b-a != 2*200 {
		t.Errorf("free-form ping-pong: %d switches for 100 round trips, %d for 300; want 2 per round trip", a, b)
	}
	if n := pingPong(300, true); n != 0 {
		t.Errorf("frame ping-pong made %d switches, want 0", n)
	}
}

// conserved reports whether every scheduled event is accounted for:
// dispatched by kind, skipped, or still pending.
func conserved(c Counters) bool {
	return c.Scheduled == c.Wakes+c.Starts+c.Kills+c.Callbacks+c.Deliveries+c.Skipped+c.Pending
}

// TestCountersAccountForEveryEvent: a small program with one event of
// every kind reads the counts one can work out by hand, and conservation
// (Counters' doc comment) holds mid-run as well as at the end.
func TestCountersAccountForEveryEvent(t *testing.T) {
	g := NewGroup(2)
	s, far := g.Domain(0), g.Domain(1)
	q, in := s.NewQueue("q"), far.NewQueue("in")
	link := g.Connect(s, in, Millisecond)
	s.GoCoro("sleeper", func(c *Coro, _ any) Step { // start + one scheduled sleep: other events are due first
		return c.Sleep(2*Millisecond, func(c *Coro, _ any) Step { return c.End() })
	})
	victim := s.GoCoro("victim", func(c *Coro, _ any) Step { // start; its 5 ms wake is popped after the kill and skipped
		return c.Sleep(5*Millisecond, func(c *Coro, _ any) Step { panic("the victim woke up") })
	})
	s.Go("getter", func(th *Thread) { // start + one hand-off wake: two switches, two frame steps
		th.Get(q)
	})
	s.At(Time(Millisecond), func() { // callback; schedules the kill, the hand-off wake and a cross-domain delivery
		s.Kill(victim)
		q.Put(1)
		link.Send(2)
	})
	far.GoCoro("receiver", func(c *Coro, _ any) Step { // start + one wake by the delivery
		return c.Get(in, func(c *Coro, _ any) Step {
			// The sleep ends before the only other event of the domain and
			// of the epoch, so the clock advances in place.
			far.After(500*Microsecond, func() {})
			return c.Sleep(100*Microsecond, func(c *Coro, _ any) Step { return c.End() })
		})
	})
	g.RunUntil(func() bool { return g.Now() >= Time(2*Millisecond) })
	if c := g.Counters(); !conserved(c) || c.Pending != 1 {
		t.Errorf("after the 2 ms epoch: want conservation with the victim's wake pending, got %+v", c)
	}
	g.Run()
	g.Shutdown()
	want := Counters{
		Scheduled: 12, SameInstant: 7, PendingMax: 4,
		Wakes: 3, Starts: 4, Kills: 1, Callbacks: 2, Deliveries: 1, Skipped: 1,
		SleepsInline: 1, SleepsScheduled: 2, FrameSteps: 7, Switches: 2,
	}
	got := g.Counters()
	got.Moved = 0 // the queue's own cost, pinned by BenchmarkEventQueueHold and the oracle test
	if got != want {
		t.Errorf("counters\n got %+v\nwant %+v", got, want)
	}
	if !conserved(g.Counters()) {
		t.Errorf("conservation broken at the end: %+v", g.Counters())
	}
	if s.Switches() != 2 {
		t.Errorf("Switches() = %d, want the counter's 2", s.Switches())
	}
}
