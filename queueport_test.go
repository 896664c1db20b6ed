package whodunit_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"whodunit"
)

// A Queue's critical-section operations are written once, as a
// QueuePort's frames: a run-to-completion thread calls them (the frame
// face) and the blocking Queue.Push/Pop await them (the blocking face).
// These tests run the same small programs on either face, and on both
// at once.

// popped is what a popper saw: the element and the transaction context
// its probe was in when the pop returned.
type popped struct {
	elem any
	ctxt string
}

// pusher pushes elems in order, each under a transaction of its own
// (produce_<elem>), through the blocking face or the frame face.
type pusher struct {
	st    *whodunit.Stage
	q     *whodunit.Queue
	elems []any
	start whodunit.Duration // sleep this long first

	pr    *whodunit.Probe
	port  *whodunit.QueuePort
	i     int
	nextF whodunit.Frame
}

func label(v any) string { return fmt.Sprintf("produce_%v", v) }

func (p *pusher) spawn(name string, frames bool) *whodunit.Thread {
	if !frames {
		return p.st.Go(name, func(th *whodunit.Thread, pr *whodunit.Probe) {
			th.Sleep(p.start)
			for _, v := range p.elems {
				p.st.BeginTxn(pr, label(v))
				p.q.Push(pr, v)
			}
		})
	}
	p.nextF = p.next
	return p.st.GoCoro(name, func(_ *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
		p.pr, p.port, p.i = pr, p.q.Port(pr), 0
		return func(c *whodunit.Coro, _ any) whodunit.Step { return c.Sleep(p.start, p.nextF) }
	})
}

func (p *pusher) next(c *whodunit.Coro, _ any) whodunit.Step {
	if p.i == len(p.elems) {
		return c.End()
	}
	v := p.elems[p.i]
	p.i++
	p.st.BeginTxn(p.pr, label(v))
	return p.port.Push(c, v, p.nextF)
}

// popper pops for ever, recording what it saw, through either face.
type popper struct {
	st    *whodunit.Stage
	q     *whodunit.Queue
	start whodunit.Duration
	got   *[]popped

	pr    *whodunit.Probe
	port  *whodunit.QueuePort
	nextF whodunit.Frame
}

func (p *popper) spawn(name string, frames bool) *whodunit.Thread {
	if !frames {
		return p.st.Go(name, func(th *whodunit.Thread, pr *whodunit.Probe) {
			th.Sleep(p.start)
			for {
				v := p.q.Pop(pr)
				*p.got = append(*p.got, popped{v, pr.Txn().Label()})
			}
		})
	}
	p.nextF = p.next
	return p.st.GoCoro(name, func(_ *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
		p.pr, p.port = pr, p.q.Port(pr)
		return func(c *whodunit.Coro, _ any) whodunit.Step {
			return c.Sleep(p.start, func(c *whodunit.Coro, _ any) whodunit.Step { return p.port.Pop(c, p.nextF) })
		}
	})
}

func (p *popper) next(c *whodunit.Coro, v any) whodunit.Step {
	*p.got = append(*p.got, popped{v, p.pr.Txn().Label()})
	return p.port.Pop(c, p.nextF)
}

var faces = []struct {
	name   string
	frames bool
}{{"blocking", false}, {"frame", true}}

func reportBytes(t *testing.T, rep *whodunit.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueueFacesPairUp: a blocking Push against a frame Pop, the reverse,
// and the two pure pairings are the same run — every element arrives
// under the context it was pushed with, at the same instants, with the
// same report bytes.
func TestQueueFacesPairUp(t *testing.T) {
	elems := []any{"a", "b", "c", "d", "e", "f"}
	var first []byte
	for _, push := range faces {
		for _, pop := range faces {
			app := whodunit.NewApp("pair", whodunit.WithFlowDetection(), whodunit.WithCores(1))
			prod, cons := app.Stage("prod"), app.Stage("cons")
			q := app.NewQueue("q")
			var got []popped
			(&pusher{st: prod, q: q, elems: elems}).spawn("pusher", push.frames)
			(&popper{st: cons, q: q, got: &got}).spawn("popper", pop.frames)
			rep := app.RunUntil(func() bool { return len(got) == len(elems) })

			if len(got) != len(elems) {
				t.Fatalf("%s push, %s pop: popped %d of %d", push.name, pop.name, len(got), len(elems))
			}
			for _, g := range got {
				if want := "prod:" + label(g.elem); g.ctxt != want {
					t.Errorf("%s push, %s pop: %v arrived under %q, want %q", push.name, pop.name, g.elem, g.ctxt, want)
				}
			}
			if n := app.FlowStats().RegFilesLive; n != 0 {
				t.Errorf("%s push, %s pop: %d register files live after the run", push.name, pop.name, n)
			}
			js := reportBytes(t, rep)
			if first == nil {
				first = js
			} else if !bytes.Equal(js, first) {
				t.Errorf("%s push, %s pop: report differs from the blocking pair's", push.name, pop.name)
			}
		}
	}
}

// TestQueueFacesShareOneQueue: a blocking and a frame pusher feed one
// queue that a blocking and a frame popper drain; whoever pops an
// element adopts the context of whoever pushed it.
func TestQueueFacesShareOneQueue(t *testing.T) {
	app := whodunit.NewApp("mix", whodunit.WithFlowDetection(), whodunit.WithCores(2))
	st := app.Stage("mix")
	q := app.NewQueue("q")
	var byBlocking, byFrame []popped
	(&pusher{st: st, q: q, elems: []any{1, 2, 3, 4, 5, 6, 7, 8}}).spawn("blocking-pusher", false)
	(&pusher{st: st, q: q, elems: []any{11, 12, 13, 14, 15, 16, 17, 18}}).spawn("frame-pusher", true)
	(&popper{st: st, q: q, got: &byBlocking}).spawn("blocking-popper", false)
	(&popper{st: st, q: q, got: &byFrame}).spawn("frame-popper", true)
	app.RunUntil(func() bool { return len(byBlocking)+len(byFrame) == 16 })

	if len(byBlocking) == 0 || len(byFrame) == 0 {
		t.Fatalf("blocking popper took %d elements, frame popper %d: both must take some", len(byBlocking), len(byFrame))
	}
	var seen []int
	for _, g := range append(byBlocking, byFrame...) {
		if want := "mix:" + label(g.elem); g.ctxt != want {
			t.Errorf("%v arrived under %q, want %q", g.elem, g.ctxt, want)
		}
		seen = append(seen, g.elem.(int))
	}
	sort.Ints(seen)
	if fmt.Sprint(seen) != "[1 2 3 4 5 6 7 8 11 12 13 14 15 16 17 18]" {
		t.Fatalf("popped %v, want every element exactly once", seen)
	}
	if fs := app.FlowStats(); fs.RegFilesLive != 0 || fs.Flows != 32 {
		t.Errorf("%d register files live and %d flows after the run, want 0 and 32 (two context-carrying words per element)", fs.RegFilesLive, fs.Flows)
	}
}

// TestQueuePortPopsRawElementAsIs: an element added with raw Put comes
// out of the frame face's Pop as it went in — no critical section, no
// context change — even with a pushed element buffered behind it.
func TestQueuePortPopsRawElementAsIs(t *testing.T) {
	app := whodunit.NewApp("mixed", whodunit.WithFlowDetection())
	st := app.Stage("mixed")
	q := app.NewQueue("q")
	q.Put("raw-1")
	var got []popped
	(&popper{st: st, q: q, got: &got, start: whodunit.Millisecond}).spawn("consumer", true)
	(&pusher{st: st, q: q, elems: []any{"pushed-1"}}).spawn("producer", true)
	app.RunUntil(func() bool { return len(got) == 2 })

	if len(got) != 2 || got[0].elem != "raw-1" || got[1].elem != "pushed-1" {
		t.Fatalf("popped %v, want raw-1 then pushed-1", got)
	}
	if got[0].ctxt != "(root)" {
		t.Errorf("raw element switched the context to %q", got[0].ctxt)
	}
	if want := "mixed:produce_pushed-1"; got[1].ctxt != want {
		t.Errorf("pushed element arrived under %q, want %q", got[1].ctxt, want)
	}
	if app.Machine().TotalCycles == 0 {
		t.Error("the pushed element ran no critical section")
	}
}

// TestQueueOverlappingPopsAdoptTheirOwnProducer: two poppers enter their
// pop critical sections at the same instant on one core, so the second
// one's flow is delivered while the first is still being charged for its
// own. Each must come back under the context of the element it took: the
// delivered flow is captured before the charge, not read after it.
func TestQueueOverlappingPopsAdoptTheirOwnProducer(t *testing.T) {
	for _, face := range faces {
		app := whodunit.NewApp("overlap", whodunit.WithFlowDetection(), whodunit.WithCores(1))
		prod, cons := app.Stage("prod"), app.Stage("cons")
		q := app.NewQueue("q")
		var got1, got2 []popped
		(&pusher{st: prod, q: q, elems: []any{"a", "b"}}).spawn("pusher", face.frames)
		(&popper{st: cons, q: q, got: &got1, start: whodunit.Millisecond}).spawn("popper-1", face.frames)
		(&popper{st: cons, q: q, got: &got2, start: whodunit.Millisecond}).spawn("popper-2", face.frames)
		inFlight := 0
		app.Sim().At(whodunit.Time(whodunit.Millisecond+whodunit.Nanosecond), func() { inFlight = len(app.Machine().Threads) })
		app.RunUntil(func() bool { return len(got1)+len(got2) == 2 })

		if inFlight != 2 {
			t.Fatalf("%s face: %d pops in flight just after 1 ms, want both", face.name, inFlight)
		}
		if len(got1) != 1 || len(got2) != 1 || got1[0].elem == got2[0].elem {
			t.Fatalf("%s face: poppers took %v and %v, want one element each", face.name, got1, got2)
		}
		for _, g := range []popped{got1[0], got2[0]} {
			if want := "prod:" + label(g.elem); g.ctxt != want {
				t.Errorf("%s face: %v arrived under %q, want %q", face.name, g.elem, g.ctxt, want)
			}
		}
	}
}

// TestQueueGetRefusesFramePushedElem: Get's pairing guard holds for an
// element pushed through a port.
func TestQueueGetRefusesFramePushedElem(t *testing.T) {
	app := whodunit.NewApp("guard", whodunit.WithFlowDetection())
	st := app.Stage("guard")
	q := app.NewQueue("q")
	(&pusher{st: st, q: q, elems: []any{"x"}}).spawn("producer", true)
	panicked, done := false, false
	st.Go("getter", func(th *whodunit.Thread, pr *whodunit.Probe) {
		defer func() {
			panicked = recover() != nil
			done = true
		}()
		q.Get(th)
	})
	app.RunUntil(func() bool { return done })
	if !panicked {
		t.Fatal("Get on an element pushed through a port did not panic")
	}
}

// TestQueueOpsOutsideOwnBody: Push and Pop called for a thread from a
// scheduler callback are rejected, with or without flow detection, and
// the element goes nowhere: each is a blocking call of the probe's
// thread, whether or not a machine runs its critical section.
func TestQueueOpsOutsideOwnBody(t *testing.T) {
	const want = "vclock: blocking call on thread owner from outside its running body"
	for _, flow := range []bool{false, true} {
		for _, op := range []string{"push", "pop"} {
			var opts []whodunit.Option
			if flow {
				opts = append(opts, whodunit.WithFlowDetection())
			}
			app := whodunit.NewApp("misuse", opts...)
			st := app.Stage("misuse")
			q := app.NewQueue("q")
			var owner *whodunit.Probe
			st.Go("owner", func(th *whodunit.Thread, pr *whodunit.Probe) {
				owner = pr
				th.Sleep(whodunit.Second)
			})
			app.Sim().At(whodunit.Time(whodunit.Millisecond), func() {
				if op == "push" {
					q.Push(owner, "x")
				} else {
					q.Pop(owner)
				}
			})
			func() {
				defer func() {
					recover() // Run raises the crash
					if c := app.Sim().Crashed(); c == nil || c.Thread != "(scheduler)" || !strings.HasPrefix(fmt.Sprint(c.Value), want) {
						t.Errorf("flow %v, %s from a callback: crash %v, want %q recorded against (scheduler)", flow, op, c, want)
					}
				}()
				app.Run()
			}()
			if n := q.Len(); n != 0 {
				t.Errorf("flow %v, %s from a callback: %d elements on the queue, want 0", flow, op, n)
			}
		}
	}
}

// TestQueueKilledMidOperation: a thread killed while it is being charged
// for a push or a pop still runs the second half of the execution, on
// either face — nothing stays behind in the tracker or the machine — and
// the element fares as the Queue comment says: a push cut short is
// delivered, under the context it was pushed with; a pop cut short
// takes its element with it, and the next element goes to the next
// popper.
func TestQueueKilledMidOperation(t *testing.T) {
	const ms = whodunit.Millisecond
	for _, face := range faces {
		// "x" is pushed at 1 ms and popped by popper-1 as soon as its push
		// is charged; "y" is pushed at 5 ms, with popper-2 waiting too.
		build := func() (app *whodunit.App, q *whodunit.Queue, got *[]popped, victim map[string]*whodunit.Thread) {
			app = whodunit.NewApp("kill", whodunit.WithFlowDetection(), whodunit.WithCores(1))
			st := app.Stage("kill")
			q = app.NewQueue("q")
			got = new([]popped)
			victim = map[string]*whodunit.Thread{
				"push": (&pusher{st: st, q: q, elems: []any{"x"}, start: ms}).spawn("pusher", face.frames),
				"pop":  (&popper{st: st, q: q, got: got}).spawn("popper-1", face.frames),
			}
			(&pusher{st: st, q: q, elems: []any{"y"}, start: 5 * ms}).spawn("late-pusher", face.frames)
			(&popper{st: st, q: q, got: got, start: 3 * ms}).spawn("popper-2", face.frames)
			return
		}
		inFlight := func(app *whodunit.App, op string) bool {
			for _, vt := range app.Machine().Threads {
				if strings.HasPrefix(vt.Prog.Name, "fd_queue_"+op) {
					return true
				}
			}
			return false
		}
		end := func(app *whodunit.App) func() bool {
			return func() bool { return app.Sim().Now() >= whodunit.Time(10*ms) }
		}

		// The instants, from a run nobody is killed in.
		at := map[string]whodunit.Time{}
		probe, _, _, _ := build()
		probe.Sim().Every(whodunit.Microsecond, func() {
			for _, op := range []string{"push", "pop"} {
				if at[op] == 0 && inFlight(probe, op) {
					// Strictly inside the charge, which lasts microseconds:
					// at a whole microsecond the threads' own events tie
					// with the kill.
					at[op] = probe.Sim().Now().Add(500 * whodunit.Nanosecond)
				}
			}
		})
		probe.RunUntil(end(probe))

		for _, tc := range []struct {
			op   string
			want []popped
		}{
			{"push", []popped{{"x", "kill:produce_x"}, {"y", "kill:produce_y"}}},
			{"pop", []popped{{"y", "kill:produce_y"}}},
		} {
			if at[tc.op] == 0 {
				t.Fatalf("%s face: the probing run never had a %s in flight", face.name, tc.op)
			}
			app, q, got, victim := build()
			app.Sim().At(at[tc.op], func() {
				if !inFlight(app, tc.op) {
					t.Errorf("%s face: no %s in flight at the kill", face.name, tc.op)
				}
				app.Sim().Kill(victim[tc.op])
			})
			app.RunUntil(end(app))
			if c := app.Sim().Crashed(); c != nil {
				t.Fatalf("%s face, killed in a %s: the run crashed: %v", face.name, tc.op, c)
			}
			if fmt.Sprint(*got) != fmt.Sprint(tc.want) {
				t.Errorf("%s face, killed in a %s: popped %v, want %v", face.name, tc.op, *got, tc.want)
			}
			if n := app.FlowStats().RegFilesLive; n != 0 {
				t.Errorf("%s face, killed in a %s: %d register files still live", face.name, tc.op, n)
			}
			if n := len(app.Machine().Threads); n != 0 {
				t.Errorf("%s face, killed in a %s: %d vm threads never reaped", face.name, tc.op, n)
			}
			if n := q.Len(); n != 0 {
				t.Errorf("%s face, killed in a %s: %d semaphore tokens left on the queue", face.name, tc.op, n)
			}
		}
	}
}

// pairRig is a pusher and a popper exchanging n elements over one queue
// as frame programs whose continuations are bound once, or as blocking
// bodies: what TestQueuePortSteadyStateAllocs counts the allocations of.
type pairRig struct {
	q      *whodunit.Queue
	n      int
	elem   *int
	popped int

	pushPort, popPort *whodunit.QueuePort
	pushed            int
	pushF, popF       whodunit.Frame
}

func (r *pairRig) push(c *whodunit.Coro, _ any) whodunit.Step {
	if r.pushed == r.n {
		return c.End()
	}
	r.pushed++
	return r.pushPort.Push(c, r.elem, r.pushF)
}

func (r *pairRig) pop(c *whodunit.Coro, v any) whodunit.Step {
	if v != nil {
		r.popped++
	}
	return r.popPort.Pop(c, r.popF)
}

// run exchanges n elements and returns how many heap allocations the
// whole run made.
func runPairs(n int, frames bool) (allocs float64, popped int) {
	return testing.AllocsPerRun(1, func() {
		app := whodunit.NewApp("pairs", whodunit.WithFlowDetection(), whodunit.WithCores(2))
		prod, cons := app.Stage("prod"), app.Stage("cons")
		r := &pairRig{q: app.NewQueue("q"), n: n, elem: new(int)}
		if frames {
			r.pushF, r.popF = r.push, r.pop
			prod.GoCoro("pusher", func(_ *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
				prod.BeginTxn(pr, "produce")
				r.pushPort = r.q.Port(pr)
				return r.pushF
			})
			cons.GoCoro("popper", func(_ *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
				r.popPort = r.q.Port(pr)
				return r.popF
			})
		} else {
			prod.Go("pusher", func(_ *whodunit.Thread, pr *whodunit.Probe) {
				prod.BeginTxn(pr, "produce")
				for i := 0; i < n; i++ {
					r.q.Push(pr, r.elem)
				}
			})
			cons.Go("popper", func(_ *whodunit.Thread, pr *whodunit.Probe) {
				for {
					r.q.Pop(pr)
					r.popped++
				}
			})
		}
		app.RunUntil(func() bool { return r.popped == n })
		popped = r.popped
	}), popped
}

// TestQueuePortSteadyStateAllocs: a push/pop pair through ports costs no
// more allocations than a blocking pair — the frame face makes no
// closure per call, and neither face a vm thread per execution. The
// fixed cost of building and reporting an app cancels in the difference
// between a long and a short run.
func TestQueuePortSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const short, long = 200, 2200
	perPair := func(frames bool) float64 {
		a, n1 := runPairs(short, frames)
		b, n2 := runPairs(long, frames)
		if n1 != short || n2 != long {
			t.Fatalf("exchanged %d and %d elements, want %d and %d", n1, n2, short, long)
		}
		return (b - a) / (long - short)
	}
	blocking, frame := perPair(false), perPair(true)
	t.Logf("allocations per push/pop pair: blocking %.3f, frame %.3f", blocking, frame)
	// A closure per call would add a whole allocation per pair; the
	// slack covers what the runtime allocates behind a run's back.
	if frame > blocking+0.05 {
		t.Errorf("a frame push/pop pair allocates %.3f times, a blocking pair %.3f: the frame face must not cost more", frame, blocking)
	}
	if blocking >= 1 {
		t.Errorf("a blocking push/pop pair allocates %.3f times, want less than one: executions re-arm their vm thread", blocking)
	}
}
