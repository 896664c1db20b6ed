package vclock

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// traceEntry is one observed delivery: which consumer saw what, when.
type traceEntry struct {
	who string
	at  Time
	v   any
}

// pingPong builds the same two-party program on a group of n domains
// and returns the observation trace: a client issues `rounds` requests
// with 3ms think time over a 1ms link; a server answers each after
// 500µs of handling over another 1ms link. With n=1 both parties share
// a domain (all links same-domain, still epoch-buffered); with n=2 the
// server is on domain 0 and the client on domain 1.
func pingPong(n, rounds int) []traceEntry {
	g := NewGroup(n)
	srvSim := g.Domain(0)
	cliSim := g.Domain((n - 1) % n)
	srvQ := srvSim.NewQueue("srv")
	cliQ := cliSim.NewQueue("cli")
	toSrv := g.Connect(cliSim, srvQ, Millisecond)
	toCli := g.Connect(srvSim, cliQ, Millisecond)
	var trace []traceEntry
	srvSim.Go("server", func(th *Thread) {
		for {
			v := th.Get(srvQ)
			trace = append(trace, traceEntry{"server", th.Now(), v})
			th.Sleep(500 * Microsecond)
			toCli.Send(v)
		}
	})
	cliSim.Go("client", func(th *Thread) {
		for i := 0; i < rounds; i++ {
			toSrv.Send(i)
			v := th.Get(cliQ)
			trace = append(trace, traceEntry{"client", th.Now(), v})
			th.Sleep(3 * Millisecond)
		}
	})
	g.Run()
	g.Shutdown()
	return trace
}

// TestGroupSerialShardedIdentity pins the tentpole invariant at the
// vclock layer: the observation trace of the same program is identical
// whether its parties share one time domain or are split across two.
func TestGroupSerialShardedIdentity(t *testing.T) {
	serial := pingPong(1, 20)
	sharded := pingPong(2, 20)
	if len(serial) != len(sharded) {
		t.Fatalf("trace lengths differ: serial %d, sharded %d", len(serial), len(sharded))
	}
	if len(serial) != 40 {
		t.Fatalf("expected 40 observations, got %d", len(serial))
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("trace[%d] differs: serial %+v, sharded %+v", i, serial[i], sharded[i])
		}
	}
}

func TestGroupLookahead(t *testing.T) {
	g := NewGroup(2)
	q0 := g.Domain(0).NewQueue("q0")
	q1 := g.Domain(1).NewQueue("q1")
	g.Connect(g.Domain(0), q1, 3*Millisecond)
	g.Connect(g.Domain(1), q0, Millisecond)
	g.Connect(g.Domain(0), q0, 0) // direct: excluded from lookahead
	if got := g.Lookahead(); got != Millisecond {
		t.Fatalf("Lookahead = %v, want %v", got, Millisecond)
	}
}

func TestConnectZeroLatencyCrossDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Connect accepted a zero-latency cross-domain link")
		}
	}()
	g := NewGroup(2)
	q1 := g.Domain(1).NewQueue("q1")
	g.Connect(g.Domain(0), q1, 0)
}

// TestGroupDirectLink: a zero-latency same-domain link delivers
// immediately, without waiting for any barrier.
func TestGroupDirectLink(t *testing.T) {
	g := NewGroup(1)
	s := g.Domain(0)
	q := s.NewQueue("q")
	l := g.Connect(s, q, 0)
	var at Time
	s.Go("consumer", func(th *Thread) { th.Get(q); at = th.Now() })
	s.Go("producer", func(th *Thread) {
		th.Sleep(2 * Millisecond)
		l.Send("x")
	})
	g.Run()
	g.Shutdown()
	if at != Time(2*Millisecond) {
		t.Fatalf("delivery at %v, want %v", at, Time(2*Millisecond))
	}
}

// TestGroupCrash: a panic in a non-home domain halts the group run and
// surfaces through Group.Crashed.
func TestGroupCrash(t *testing.T) {
	g := NewGroup(2)
	q1 := g.Domain(1).NewQueue("q1")
	g.Connect(g.Domain(0), q1, Millisecond) // epoch mode
	g.Domain(1).Go("boom", func(th *Thread) {
		th.Sleep(5 * Millisecond)
		panic("injected")
	})
	g.Domain(0).Go("spin", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Sleep(Millisecond)
		}
	})
	g.Run()
	c := g.Crashed()
	if c == nil || c.Thread != "boom" || c.At != Time(5*Millisecond) {
		t.Fatalf("Crashed = %+v, want boom at 5ms", c)
	}
	g.Shutdown()
}

func TestGroupNowIsMaxDomainClock(t *testing.T) {
	g := NewGroup(2)
	g.Domain(0).Go("a", func(th *Thread) { th.Sleep(Millisecond) })
	g.Domain(1).Go("b", func(th *Thread) { th.Sleep(7 * Millisecond) })
	g.Run()
	g.Shutdown()
	if got := g.Now(); got != Time(7*Millisecond) {
		t.Fatalf("Now = %v, want 7ms", got)
	}
}

// TestRunBefore: events strictly before the horizon run; an event at
// exactly the horizon stays pending (the off-by-one RunFor would make).
func TestRunBefore(t *testing.T) {
	s := New()
	var ran []string
	s.At(Time(Millisecond), func() { ran = append(ran, "before") })
	s.At(Time(2*Millisecond), func() { ran = append(ran, "at") })
	s.RunBefore(Time(2 * Millisecond))
	if fmt.Sprint(ran) != "[before]" {
		t.Fatalf("ran %v, want [before] only", ran)
	}
	if s.q.n != 1 || s.q.next != Time(2*Millisecond) {
		t.Fatalf("event at the horizon should stay pending")
	}
	s.Run()
	if fmt.Sprint(ran) != "[before at]" {
		t.Fatalf("ran %v after full run", ran)
	}
}

// TestGroupRunUntilStopAtBarrier: the stop predicate is honored at
// epoch barriers, leaving later work pending.
func TestGroupRunUntilStopAtBarrier(t *testing.T) {
	g := NewGroup(2)
	q0 := g.Domain(0).NewQueue("q0")
	l := g.Connect(g.Domain(1), q0, Millisecond)
	count := 0
	g.Domain(0).Go("consumer", func(th *Thread) {
		for {
			th.Get(q0)
			count++
		}
	})
	g.Domain(1).Go("producer", func(th *Thread) {
		for i := 0; i < 100; i++ {
			l.Send(i)
			th.Sleep(Millisecond)
		}
	})
	g.RunUntil(func() bool { return count >= 10 })
	if count < 10 || count >= 100 {
		t.Fatalf("count = %d, want stopped in [10,100)", count)
	}
	g.Shutdown()
}

// ringParty is one of the four parties of ringLoad; everything in it is
// touched from the party's own domain only.
type ringParty struct {
	ticks int
	log   []traceEntry
}

// ringLoad builds four parties joined in a ring by 1 ms links on a
// group of n domains (party i on domain i%n). Each party runs `tickers`
// run-to-completion threads that wake every `period`, all in phase, so
// every wake is a heap push, and one that sends a token to the next
// party every millisecond. With keepLog the receiving party records
// when each token arrived and how many of its own ticks had run by
// then, which is sensitive to every same-instant tie-break between a
// barrier delivery and local events.
func ringLoad(n, tickers int, period Duration, keepLog bool) (*Group, []*ringParty) {
	const parties = 4
	g := NewGroup(n)
	ps := make([]*ringParty, parties)
	in := make([]*Queue, parties)
	for i := range ps {
		ps[i] = &ringParty{}
		in[i] = g.Domain(i % n).NewQueue(fmt.Sprint("in", i))
	}
	var token any = struct{}{}
	for i, p := range ps {
		s := g.Domain(i % n)
		next := g.Connect(s, in[(i+1)%parties], Millisecond)
		var tick, send, recv Frame
		tick = func(c *Coro, _ any) Step {
			p.ticks++
			return c.Sleep(period, tick)
		}
		send = func(c *Coro, _ any) Step {
			next.Send(token)
			return c.Sleep(Millisecond, send)
		}
		who, q := fmt.Sprint("party", i), in[i]
		recv = func(c *Coro, v any) Step {
			if keepLog && v != nil {
				p.log = append(p.log, traceEntry{who, c.Now(), p.ticks})
			}
			return c.Get(q, recv)
		}
		for k := 0; k < tickers; k++ {
			s.GoCoro("tick", tick)
		}
		s.GoCoro("send", send)
		s.GoCoro("recv", recv)
	}
	return g, ps
}

// ringTrace runs ringLoad for `epochs` milliseconds and returns the
// parties' logs and the group's counters.
func ringTrace(n, tickers int, period Duration, epochs int) (string, GroupStats) {
	g, ps := ringLoad(n, tickers, period, true)
	g.RunUntil(func() bool { return g.Now() >= Time(epochs)*Time(Millisecond) })
	g.Shutdown()
	var logs [][]traceEntry
	for _, p := range ps {
		logs = append(logs, p.log)
	}
	return fmt.Sprint(logs), g.Stats()
}

// TestGroupLightEpochsStayInline: the ring with a handful of events per
// epoch on four domains matches the one-domain layout byte for byte,
// with every party's domain active in every epoch.
func TestGroupLightEpochsStayInline(t *testing.T) {
	const epochs = 20
	serial, _ := ringTrace(1, 2, 300*Microsecond, epochs)
	sharded, st := ringTrace(4, 2, 300*Microsecond, epochs)
	if serial != sharded {
		t.Fatalf("four-domain run differs from the one-domain run:\n%s\n%s", serial, sharded)
	}
	if st.Epochs < epochs || st.Active != 4*st.Epochs {
		t.Fatalf("not one four-domain epoch per millisecond: %+v", st)
	}
	if want := uint64(4 * epochs); st.Messages < want-4 || st.Messages > want+4 {
		t.Fatalf("Messages = %d, want about %d", st.Messages, want)
	}
}

// homeProgram is a small program for one Sim: a producer putting with
// uneven gaps and two consumers racing for the items with a timeout,
// which gives up once the producer is done.
func homeProgram(s *Sim, trace *[]traceEntry) {
	q := s.NewQueue("work")
	s.Go("producer", func(th *Thread) {
		for i := 0; i < 40; i++ {
			q.Put(i)
			th.Sleep(Duration(i%3) * 300 * Microsecond)
		}
	})
	for _, name := range []string{"c0", "c1"} {
		s.Go(name, func(th *Thread) {
			for {
				v, ok := th.GetTimeout(q, 2*Millisecond)
				if !ok {
					return
				}
				*trace = append(*trace, traceEntry{name, th.Now(), v})
				th.Sleep(500 * Microsecond)
			}
		})
	}
}

// TestGroupEmptyDomainsInert: domains that hold no work change nothing.
// A four-domain group whose domains 1–3 are empty traces the program on
// domain 0 exactly as a bare Sim does — without a link, where the
// domains run one after another, and with a 1 ms link between two of
// the empty domains, which puts the run on the epoch loop.
func TestGroupEmptyDomainsInert(t *testing.T) {
	var want []traceEntry
	s := New()
	homeProgram(s, &want)
	s.Run()
	s.Shutdown()
	if len(want) != 40 {
		t.Fatalf("bare Sim traced %d items, want 40", len(want))
	}
	for _, linked := range []bool{false, true} {
		g := NewGroup(4)
		var got []traceEntry
		homeProgram(g.Domain(0), &got)
		if linked {
			g.Connect(g.Domain(2), g.Domain(1).NewQueue("idle"), Millisecond)
		}
		g.Run()
		g.Shutdown()
		if fmt.Sprint(got) != fmt.Sprint(want) || g.Now() != s.Now() {
			t.Fatalf("linked=%v: trace ends at %v, want %v:\n%v\n%v", linked, g.Now(), s.Now(), got, want)
		}
		if st := g.Stats(); (st.Epochs > 0) != linked || st.Active != st.Epochs {
			t.Fatalf("linked=%v: %+v, want epochs only with the link and domain 0 alone active", linked, st)
		}
	}
}

// TestGroupEpochZeroAllocs: a steady-state epoch — every domain active,
// one token from each across the barrier — allocates nothing: no
// closure per RunBefore, no merge or sort scratch.
func TestGroupEpochZeroAllocs(t *testing.T) {
	g, _ := ringLoad(4, 2, 250*Microsecond, false)
	barriers := 0
	oneEpoch := func() bool { barriers++; return barriers%2 == 0 }
	g.RunUntil(func() bool { return g.Now() >= Time(5*Millisecond) }) // start threads, settle capacities
	before := g.Stats()
	if avg := testing.AllocsPerRun(200, func() { g.RunUntil(oneEpoch) }); avg != 0 {
		t.Fatalf("%.2f allocs per epoch, want 0", avg)
	}
	st := g.Stats()
	if st.Epochs-before.Epochs != 201 || st.Active-before.Active != 4*201 || st.Messages-before.Messages != 4*201 {
		t.Fatalf("the measured runs were not one four-domain epoch each: %+v after %+v", st, before)
	}
	g.Shutdown()
}

// TestGroupHorizonOverflow: an event so late that the next Δ-grid point
// is not representable used to wrap the horizon negative, and Run spun
// forever on epochs that dispatched nothing. A bare Sim just runs it.
func TestGroupHorizonOverflow(t *testing.T) {
	g := NewGroup(2)
	g.Connect(g.Domain(0), g.Domain(1).NewQueue("in"), Millisecond)
	var woke Time
	g.Domain(1).Go("sleeper", func(th *Thread) {
		th.SleepUntil(Time(math.MaxInt64))
		woke = th.Now()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Run()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Group.Run did not return: the epoch horizon overflowed")
	}
	if woke != Time(math.MaxInt64) || g.Domain(1).Live() != 0 {
		t.Fatalf("sleeper woke at %v with %d threads live, want the end of time and 0", woke, g.Domain(1).Live())
	}
	g.Shutdown()
}
