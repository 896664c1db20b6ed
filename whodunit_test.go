package whodunit_test

import (
	"fmt"
	"strings"
	"testing"

	"whodunit"
	"whodunit/internal/event"
	"whodunit/internal/ipc"
	"whodunit/internal/profiler"
	"whodunit/internal/stitch"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// TestPublicAPITwoStagePipeline exercises the facade end to end: two
// stages over queues, per-context CCTs at the callee, stitching.
func TestPublicAPITwoStagePipeline(t *testing.T) {
	s := vclock.New()
	cpu := s.NewCPU("cpu", 2)
	webProf := profiler.New("web", whodunit.ModeWhodunit)
	dbProf := profiler.New("db", whodunit.ModeWhodunit)
	webEP := ipc.NewEndpoint("web")
	dbEP := ipc.NewEndpoint("db")
	reqQ, respQ := s.NewQueue("req"), s.NewQueue("resp")

	s.Go("db", func(th *whodunit.Thread) {
		pr := dbProf.NewProbe(th, cpu)
		for i := 0; i < 2; i++ {
			msg := th.Get(reqQ).(whodunit.Msg)
			if kind := dbEP.Recv(pr, msg); kind != ipc.Request {
				t.Errorf("db got %v", kind)
			}
			func() {
				defer pr.Exit(pr.Enter("run_query"))
				pr.Compute(20 * whodunit.Millisecond)
				respQ.Put(dbEP.Send(pr, nil))
			}()
		}
	})
	s.Go("web", func(th *whodunit.Thread) {
		pr := webProf.NewProbe(th, cpu)
		for _, page := range []string{"home", "search"} {
			func() {
				defer pr.Exit(pr.Enter("handle_" + page))
				pr.Compute(2 * whodunit.Millisecond)
				reqQ.Put(webEP.Send(pr, nil))
				if kind := webEP.Recv(pr, th.Get(respQ).(whodunit.Msg)); kind != ipc.Response {
					t.Errorf("web got %v", kind)
				}
			}()
		}
	})
	s.Run()
	s.Shutdown()

	// Two distinct db-side contexts with samples.
	withSamples := 0
	for _, e := range dbProf.Entries() {
		if e.Tree.Total() > 0 {
			withSamples++
		}
	}
	if withSamples != 2 {
		t.Fatalf("db context trees with samples = %d, want 2", withSamples)
	}

	g := stitch.Build([]whodunit.StageDump{
		whodunit.DumpStage(webProf, webEP),
		whodunit.DumpStage(dbProf, dbEP),
	})
	if len(g.Edges) != 4 {
		t.Fatalf("stitched edges = %d, want 4", len(g.Edges))
	}
	var sb strings.Builder
	g.Render(&sb)
	if !strings.Contains(sb.String(), "request") {
		t.Fatal("graph render incomplete")
	}
}

func TestPublicAPIEventLoop(t *testing.T) {
	p := profiler.New("srv", whodunit.ModeWhodunit)
	l := event.NewLoop("srv", p.Table)
	var ctxts []string
	read := &whodunit.EventHandler{Name: "read", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		ctxts = append(ctxts, l.Curr().String())
	}}
	accept := &whodunit.EventHandler{Name: "accept", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		l.Ready(l.NewEvent(read, nil))
	}}
	l.Ready(&whodunit.Event{Handler: accept})
	l.Run()
	if len(ctxts) != 1 || ctxts[0] != "srv@accept | srv@read" {
		t.Fatalf("ctxts = %v", ctxts)
	}
}

func TestPublicAPIFlowDetection(t *testing.T) {
	// The Figure 1 pattern through the redesigned surface: a listener
	// pushes into an App.NewQueue, a worker pops, and the worker's probe
	// comes back carrying the listener's transaction context — with no
	// machine, tracker or token wiring in user code at all.
	app := whodunit.NewApp("flowapp", whodunit.WithFlowDetection())
	st := app.Stage("flowapp")
	fdq := app.NewQueue("fdqueue")

	var popped any
	var workerCtxt string
	done := false
	st.Go("worker", func(th *whodunit.Thread, pr *whodunit.Probe) {
		defer pr.Exit(pr.Enter("worker_thread"))
		popped = fdq.Pop(pr)
		workerCtxt = pr.Txn().Label()
		done = true
	})
	st.Go("listener", func(th *whodunit.Thread, pr *whodunit.Probe) {
		defer pr.Exit(pr.Enter("listener_thread"))
		st.BeginTxn(pr, "listener_thread", "accept")
		fdq.Push(pr, "conn-7")
	})
	rep := app.RunUntil(func() bool { return done })

	if popped != "conn-7" {
		t.Fatalf("popped %v, want conn-7", popped)
	}
	if want := "flowapp:listener_thread>accept"; workerCtxt != want {
		t.Fatalf("worker context = %q, want %q (producer's context not propagated)", workerCtxt, want)
	}
	if len(rep.Flows) == 0 {
		t.Fatal("no flow events in the report")
	}
	for _, f := range rep.Flows {
		if f.Producer == f.Consumer {
			t.Fatalf("self-flow reported: %v", f)
		}
	}
}

func TestTrackerDictBounded(t *testing.T) {
	// Every Push and Pop runs on a fresh one-shot vm thread. The tracker
	// must forget a thread's registers when the app reaps it, or its
	// dictionary grows with the number of connections served (it used to:
	// 605 entries after 100 pairs, 60 005 after 10 000).
	const workers = 4
	run := func(pairs int) whodunit.FlowStats {
		app := whodunit.NewApp("bounded", whodunit.WithFlowDetection(), whodunit.WithCores(2))
		st := app.Stage("bounded")
		fdq := app.NewQueue("fdqueue")
		popped := 0
		for w := 0; w < workers; w++ {
			st.Go("worker", func(th *whodunit.Thread, pr *whodunit.Probe) {
				for {
					fdq.Pop(pr)
					popped++
				}
			})
		}
		st.Go("listener", func(th *whodunit.Thread, pr *whodunit.Probe) {
			for i := 0; i < pairs; i++ {
				st.BeginTxn(pr, "listener_thread", "accept")
				fdq.Push(pr, i)
			}
		})
		rep := app.RunUntil(func() bool { return popped >= pairs })
		if len(rep.Flows) != 2*pairs {
			t.Fatalf("%d pairs: %d flow events, want %d", pairs, len(rep.Flows), 2*pairs)
		}
		fs := app.FlowStats()
		if fs.DictEntries != app.FlowTracker().DictSize() || fs.CSEntries != int64(2*pairs) {
			t.Fatalf("%d pairs: inconsistent stats %+v", pairs, fs)
		}
		return fs
	}
	small, large := run(100), run(10_000)
	t.Logf("after 100 pairs %+v; after 10 000 pairs %+v", small, large)
	if small.DictEntries != large.DictEntries || small.ShadowPages != large.ShadowPages {
		t.Fatalf("dictionary grew with history: %+v after 100 pairs, %+v after 10 000", small, large)
	}
	// A register file is held from a thread's first traced register write
	// to its reap, so there can never be more of them than simulated
	// threads inside a Push or Pop at once.
	for _, fs := range []whodunit.FlowStats{small, large} {
		if fs.RegFilesLive != 0 || fs.RegFilesPooled < 1 || fs.RegFilesPooled > workers+1 {
			t.Fatalf("register files: %d live, %d pooled, want 0 live and 1..%d pooled", fs.RegFilesLive, fs.RegFilesPooled, workers+1)
		}
	}
}

func TestQueueRawPutThenPop(t *testing.T) {
	// Elements injected through the raw Put face (e.g. external stimulus
	// from a scheduler callback) must come back out of Pop as-is — no
	// emulated critical section ever stored them — and must not be
	// confused with Push'd elements even when both are buffered at once:
	// provenance is per element, not a counter.
	app := whodunit.NewApp("mixed", whodunit.WithFlowDetection())
	st := app.Stage("mixed")
	q := app.NewQueue("q")
	q.Put("raw-1") // before any Push: nothing in the vm-side queue

	var got []any
	var ctxts []string
	done := false
	st.Go("consumer", func(th *whodunit.Thread, pr *whodunit.Probe) {
		// Let the producer finish first, so a raw and a pushed element
		// are both buffered before the first Pop.
		th.Sleep(whodunit.Millisecond)
		for i := 0; i < 2; i++ {
			got = append(got, q.Pop(pr))
			ctxts = append(ctxts, pr.Txn().Label())
		}
		done = true
	})
	st.Go("producer", func(th *whodunit.Thread, pr *whodunit.Probe) {
		st.BeginTxn(pr, "produce")
		q.Push(pr, "pushed-1")
	})
	app.RunUntil(func() bool { return done })

	if len(got) != 2 || got[0] != "raw-1" || got[1] != "pushed-1" {
		t.Fatalf("popped %v, want [raw-1 pushed-1] (each exactly once, FIFO head first)", got)
	}
	if ctxts[0] != "(root)" {
		t.Fatalf("raw element must not switch context, got %q", ctxts[0])
	}
	if want := "mixed:produce"; ctxts[1] != want {
		t.Fatalf("pushed element context = %q, want %q", ctxts[1], want)
	}
}

func TestQueueGetRefusesPushedElem(t *testing.T) {
	// Draining a Push'd element with raw Get would desynchronise the
	// vm-side queue; it must fail loudly instead.
	app := whodunit.NewApp("guard", whodunit.WithFlowDetection())
	st := app.Stage("guard")
	q := app.NewQueue("q")
	done := false
	st.Go("producer", func(th *whodunit.Thread, pr *whodunit.Probe) {
		q.Push(pr, "x")
		defer func() {
			if recover() == nil {
				t.Error("Get on a Push'd element did not panic")
			}
			done = true
		}()
		q.Get(th)
	})
	app.RunUntil(func() bool { return done })
	if !done {
		t.Fatal("producer did not run to the Get guard")
	}
}

func TestStageEmulatedCSCustomProgram(t *testing.T) {
	// A custom shared-memory structure (not the library queue): user
	// assembly run through Stage.EmulatedCS still gets token plumbing
	// and §3.5 adoption from the app. The lock id and memory region are
	// reserved through App.ReserveCS so they can never collide with a
	// queue's.
	app := whodunit.NewApp("custom", whodunit.WithFlowDetection())
	st := app.Stage("custom")
	lock, base := app.ReserveCS()
	push, err := whodunit.AssembleProgram("push", fmt.Sprintf(`
	main:
		lock %d
		store [r1], r4   ; produce
		unlock %d
		halt
	`, lock, lock))
	if err != nil {
		t.Fatal(err)
	}
	pop, err := whodunit.AssembleProgram("pop", fmt.Sprintf(`
	main:
		lock %d
		load r4, [r1]
		unlock %d
		store [r9], r4   ; consume
		halt
	`, lock, lock))
	if err != nil {
		t.Fatal(err)
	}

	done := false
	var consumerCtxt string
	st.Go("consumer", func(th *whodunit.Thread, pr *whodunit.Probe) {
		th.Sleep(whodunit.Millisecond) // let the producer store first
		st.EmulatedCS(pr, pop, "main", map[byte]int64{1: base, 9: base + 0x200})
		consumerCtxt = pr.Txn().Label()
		done = true
	})
	st.Go("producer", func(th *whodunit.Thread, pr *whodunit.Probe) {
		st.BeginTxn(pr, "produce_item")
		st.EmulatedCS(pr, push, "main", map[byte]int64{1: base, 4: 42})
	})
	app.RunUntil(func() bool { return done })

	if want := "custom:produce_item"; consumerCtxt != want {
		t.Fatalf("consumer context = %q, want %q", consumerCtxt, want)
	}
	if app.Machine().TotalCycles == 0 {
		t.Fatal("no cycles charged for the emulated critical sections")
	}
}

func TestStageCriticalSectionCrosstalk(t *testing.T) {
	// Two transactions contending for a lock through Stage.CriticalSection
	// land in the crosstalk matrix with their contexts classified.
	app := whodunit.NewApp("cs",
		whodunit.WithCrosstalk(func(tc whodunit.TxnCtxt) string { return tc.Label() }))
	st := app.Stage("cs")
	lock := app.NewLock("shared")
	body := func(name string) func(th *whodunit.Thread, pr *whodunit.Probe) {
		return func(th *whodunit.Thread, pr *whodunit.Probe) {
			st.BeginTxn(pr, name)
			for i := 0; i < 3; i++ {
				st.CriticalSection(pr, lock, func() {
					pr.Compute(2 * whodunit.Millisecond)
					th.Sleep(2 * whodunit.Millisecond)
				})
			}
		}
	}
	st.Go("alpha", body("alpha"))
	st.Go("beta", body("beta"))
	rep := app.Run()
	if len(rep.Crosstalk) == 0 {
		t.Fatal("no crosstalk recorded for contended critical sections")
	}
	found := false
	for _, p := range rep.Crosstalk {
		if p.Waiter == "cs:alpha" && p.Holder == "cs:beta" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected (cs:alpha <- cs:beta) pair, got %+v", rep.Crosstalk)
	}
}

// TestCrosstalkBlamesHolderAtWaitStart pins §6's attribution: a wait is
// charged to the transaction that held the lock when the wait began,
// not to whatever the ex-holder has moved on to by the time the waiter
// runs again.
func TestCrosstalkBlamesHolderAtWaitStart(t *testing.T) {
	const ms = whodunit.Millisecond
	waiters := map[string]func(st *whodunit.Stage, l *whodunit.Lock){
		"Thread.Lock": func(st *whodunit.Stage, l *whodunit.Lock) {
			st.Go("b", func(th *whodunit.Thread, pr *whodunit.Probe) {
				st.BeginTxn(pr, "Y")
				th.Sleep(ms)
				th.Lock(l, whodunit.Exclusive)
				th.Unlock(l)
			})
		},
		"Coro.Lock": func(st *whodunit.Stage, l *whodunit.Lock) {
			st.GoCoro("b", func(th *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
				st.BeginTxn(pr, "Y")
				return func(c *whodunit.Coro, _ any) whodunit.Step {
					return c.Sleep(ms, func(c *whodunit.Coro, _ any) whodunit.Step {
						return c.Lock(l, whodunit.Exclusive, func(c *whodunit.Coro, _ any) whodunit.Step {
							c.Unlock(l)
							return c.End()
						})
					})
				}
			})
		},
	}
	for name, spawnWaiter := range waiters {
		t.Run(name, func(t *testing.T) {
			app := whodunit.NewApp("s",
				whodunit.WithCrosstalk(func(tc whodunit.TxnCtxt) string { return tc.Label() }))
			st := app.Stage("s")
			l := app.NewLock("l")
			st.Go("a", func(th *whodunit.Thread, pr *whodunit.Probe) {
				st.BeginTxn(pr, "X")
				th.Lock(l, whodunit.Exclusive)
				pr.Compute(10 * ms)
				th.Unlock(l)
				st.BeginTxn(pr, "Z")
				pr.Compute(5 * ms)
			})
			spawnWaiter(st, l)
			rep := app.Run()
			if len(rep.Crosstalk) != 1 {
				t.Fatalf("crosstalk = %+v, want one pair", rep.Crosstalk)
			}
			if p := rep.Crosstalk[0]; p.Waiter != "s:Y" || p.Holder != "s:X" {
				t.Fatalf("crosstalk pair = %+v, want s:Y waiting for s:X", p)
			}
		})
	}
}

func TestStageWithTxnRestoresContext(t *testing.T) {
	app := whodunit.NewApp("wt")
	st := app.Stage("wt")
	done := false
	st.Go("t", func(th *whodunit.Thread, pr *whodunit.Probe) {
		outer := st.BeginTxn(pr, "outer")
		inner := whodunit.TxnCtxt{Local: outer.Local.Extend(tranctx.CallHop("wt", "inner"))}
		st.WithTxn(pr, inner, func() {
			if pr.Txn().Label() != "wt:outer | wt:inner" {
				t.Errorf("inside WithTxn: %q", pr.Txn().Label())
			}
		})
		if pr.Txn().Label() != "wt:outer" {
			t.Errorf("after WithTxn: %q", pr.Txn().Label())
		}
		done = true
	})
	app.RunUntil(func() bool { return done })
	if !done {
		t.Fatal("thread did not run")
	}
}
