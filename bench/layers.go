package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"whodunit"
	"whodunit/internal/apps/tpcw"
	"whodunit/internal/cct"
	"whodunit/internal/crosstalk"
	"whodunit/internal/event"
	"whodunit/internal/ipc"
	"whodunit/internal/mesh"
	"whodunit/internal/minidb"
	"whodunit/internal/par"
	"whodunit/internal/profiler"
	"whodunit/internal/seda"
	"whodunit/internal/stitch"
	"whodunit/internal/trace"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
	"whodunit/internal/vm"
	"whodunit/internal/window"
	"whodunit/internal/workload"
)

// Layer drivers: each times calls into one package's exported functions
// from outside, over a fixed iteration count (no auto-scaling, so the
// work — and any count derived from it — repeats exactly). They
// re-express the packages' own _test.go microbenchmarks, which a main
// package cannot import. README.md says which end-to-end metric each
// one should move, and on which workload.

// layerDriver measures one or more per-layer metrics in one go. run
// performs its own set-up, does n operations and returns one value per
// metric, already divided down to the metric's unit.
type layerDriver struct {
	metrics []string
	iters   int // operations per repetition at scale 1
	run     func(n int) []float64
}

const layerReps = 5

// Conversions from the cost of a measured loop of n operations to the
// value lists drivers return.
func (d delta) perOp(n int) float64     { return d.wallNS / float64(n) }
func (d delta) perOpUS(n int) float64   { return d.wallNS / float64(n) / 1e3 }
func nsOnly(d delta, n int) []float64   { return []float64{d.perOp(n)} }
func usOnly(d delta, n int) []float64   { return []float64{d.perOpUS(n)} }
func nsAllocs(d delta, n int) []float64 { return []float64{d.perOp(n), d.allocs / float64(n)} }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runLayers runs every layer driver layerReps times and returns the
// median of each metric.
func runLayers(scale float64) map[string]stat {
	fix := newFixtures(scale)
	out := map[string]stat{}
	for _, d := range layerDrivers(fix) {
		n := scaled(d.iters, scale)
		samples := make([][]float64, len(d.metrics))
		for r := 0; r < layerReps; r++ {
			for i, v := range d.run(n) {
				samples[i] = append(samples[i], v)
			}
		}
		for i, name := range d.metrics {
			out[name] = summarize(metricUnit(name), samples[i])
		}
	}
	return out
}

// fixtures are inputs several drivers share: a small TPC-W run's report
// and dumps (the post-mortem layers work on real profiler output, not a
// synthetic tree) and a finished serve run for the HTTP reads.
type fixtures struct {
	report, other *whodunit.Report
	dumps         []whodunit.StageDump
	server        *whodunit.Server
}

func newFixtures(scale float64) *fixtures {
	run := func(seed uint64) *whodunit.Report {
		cfg := tpcw.DefaultConfig(50)
		cfg.Duration = whodunit.Duration(scaled(300, scale)) * whodunit.Second
		cfg.Seed = seed
		return tpcw.Run(cfg).Report
	}
	f := &fixtures{report: run(1), other: run(2)}
	for _, sr := range f.report.Stages {
		f.dumps = append(f.dumps, sr.Dump)
	}
	f.server = runServe(serveInput{seed: 1, windows: scaled(40, scale) + serveRetain}).server
	return f
}

func layerDrivers(fix *fixtures) []layerDriver {
	return []layerDriver{
		{[]string{"vclock.switch_goroutine_ns", "vclock.switch_allocs"}, 100_000, func(n int) []float64 {
			return nsAllocs(switchCost(vclock.EngineGoroutine, n), n)
		}},
		{[]string{"vclock.switch_coro_ns"}, 400_000, func(n int) []float64 {
			return nsOnly(switchCost(vclock.EngineCoro, n), n)
		}},
		{[]string{"vclock.sleep_deep_ns"}, 100_000, sleepDeep},
		{[]string{"vclock.compute_ns"}, 100_000, computeContended},
		{[]string{"vclock.lock_handoff_ns"}, 100_000, lockHandoff},
		{[]string{"vclock.spawn_ns"}, 10_000, spawnExit},
		{[]string{"vclock.thread_bytes_goroutine"}, 20_000, func(n int) []float64 {
			return threadBytes(vclock.EngineGoroutine, n)
		}},
		{[]string{"vclock.thread_bytes_coro"}, 20_000, func(n int) []float64 {
			return threadBytes(vclock.EngineCoro, n)
		}},
		{[]string{"vclock.epoch_ns", "vclock.xmsg_ns"}, 2_000, epochBarrier},
		{[]string{"par.do_ns"}, 20_000, func(n int) []float64 {
			return nsOnly(timed(func() {
				for i := 0; i < n; i++ {
					par.Do(4, func(int) {})
				}
			}), n)
		}},
		{[]string{"vm.step_direct_ns"}, 2_000_000, func(n int) []float64 { return vmStep(n, false) }},
		{[]string{"vm.step_emulated_ns"}, 1_000_000, func(n int) []float64 { return vmStep(n, true) }},
		{[]string{"vm.run_single_ns"}, 2_000_000, vmRunSingle},
		{[]string{"shmflow.pushpop_ns", "shmflow.pushpop_allocs"}, 3_000, func(n int) []float64 {
			return nsAllocs(queuePushPop(whodunit.ModeWhodunit, n), 2*n)
		}},
		{[]string{"shmflow.pushpop_native_ns"}, 10_000, func(n int) []float64 {
			return nsOnly(queuePushPop(whodunit.ModeSampling, n), 2*n)
		}},
		{[]string{"profiler.compute_off_ns"}, 100_000, func(n int) []float64 {
			return probeCompute(profiler.ModeOff, n)
		}},
		{[]string{"profiler.compute_whodunit_ns"}, 100_000, func(n int) []float64 {
			return probeCompute(profiler.ModeWhodunit, n)
		}},
		{[]string{"profiler.compute_gprof_ns"}, 100_000, func(n int) []float64 {
			return probeCompute(profiler.ModeInstrumented, n)
		}},
		{[]string{"profiler.enter_exit_ns"}, 1_000_000, enterExit},
		{[]string{"profiler.settxn_ns"}, 1_000_000, setTxn},
		{[]string{"profiler.snapshot_us"}, 5, func(n int) []float64 {
			p := populatedProfiler()
			return usOnly(timed(func() {
				for i := 0; i < n; i++ {
					p.Snapshot()
				}
			}), n)
		}},
		{[]string{"profiler.retire_us"}, 5, func(n int) []float64 {
			// Retire empties the profiler, so each call needs a freshly
			// populated one; only the calls are timed.
			var total delta
			for i := 0; i < n; i++ {
				p := populatedProfiler()
				c := timed(func() { p.Retire() })
				total.wallNS += c.wallNS
			}
			return usOnly(total, n)
		}},
		{[]string{"cct.add_samples_ns"}, 1_000_000, cctAddSamples},
		{[]string{"cct.insert_ns"}, 20_000, cctInsert},
		{[]string{"cct.merge_us", "cct.flatten_us"}, 200, cctMergeFlatten},
		{[]string{"tranctx.extend_ns"}, 400_000, func(n int) []float64 {
			root := tranctx.NewTable().Root()
			hop := tranctx.CallHop("web", "main", "serve", "rpc_call", "send")
			root.Extend(hop)
			return nsOnly(timed(func() {
				for i := 0; i < n; i++ {
					root.Extend(hop)
				}
			}), n)
		}},
		{[]string{"ipc.sendrecv_ns", "ipc.sendrecv_allocs"}, 200_000, ipcSendRecv},
		{[]string{"event.dispatch_ns"}, 400_000, func(n int) []float64 {
			tb := tranctx.NewTable()
			l := event.NewLoop("srv", tb)
			h := &event.Handler{Name: "h", Fn: func(*event.Loop, *event.Event) {}}
			ev := &event.Event{Handler: h, Ctxt: tb.Root()}
			return nsOnly(timed(func() {
				for i := 0; i < n; i++ {
					l.Dispatch(ev)
				}
			}), n)
		}},
		{[]string{"seda.hop_ns"}, 400_000, func(n int) []float64 {
			tb := tranctx.NewTable()
			var sink discardPutter
			a, b := seda.NewStage("srv", "parse", &sink), seda.NewStage("srv", "send", &sink)
			w := seda.NewWorker(a, tb)
			elem := seda.Inject(tb, a, nil)
			return nsOnly(timed(func() {
				for i := 0; i < n; i++ {
					w.Begin(elem)
					w.Enqueue(b, nil)
				}
			}), n)
		}},
		{[]string{"minidb.lookup_ns"}, 50_000, func(n int) []float64 {
			return nsOnly(minidbOps(n, func(db *minidb.DB, pr *whodunit.Probe, item *minidb.Table, i int) {
				db.Lookup(pr, item, int64(i*13%10000))
			}), n)
		}},
		{[]string{"minidb.scan_sort_us"}, 100, func(n int) []float64 {
			return usOnly(minidbOps(n, func(db *minidb.DB, pr *whodunit.Probe, item *minidb.Table, i int) {
				db.Select(pr, item, nil, minidb.SelectOpts{
					WhereAttr: "subject", WhereEquals: int64(i % 24), SortBy: "sales", Limit: 50})
			}), n)
		}},
		{[]string{"crosstalk.acquire_ns"}, 500_000, crosstalkAcquire},
		{[]string{"mesh.hop_ns"}, 50_000, meshHop},
		{[]string{"stitch.build_us"}, 200, func(n int) []float64 {
			return usOnly(timed(func() {
				for i := 0; i < n; i++ {
					stitch.Build(fix.dumps)
				}
			}), n)
		}},
		{[]string{"stitch.dump_stream_us"}, 100, func(n int) []float64 {
			var buf bytes.Buffer
			return usOnly(timed(func() {
				for i := 0; i < n; i++ {
					for _, d := range fix.dumps {
						buf.Reset()
						must(d.EncodeStream(&buf))
						_, _, err := stitch.ReadDumpStream(&buf)
						must(err)
					}
				}
			}), n)
		}},
		{[]string{"window.append_ns"}, 1_000_000, func(n int) []float64 {
			r := window.NewRing[int](serveRetain)
			for i := 0; i < serveRetain; i++ {
				r.Append(window.Meta{Seq: int64(i)}, i)
			}
			return nsOnly(timed(func() {
				for i := 0; i < n; i++ {
					r.Append(window.Meta{Seq: int64(serveRetain + i)}, i)
				}
			}), n)
		}},
		{[]string{"trace.gen_ns"}, 50_000, func(n int) []float64 {
			g := trace.CacheTrace()
			g.Events = n
			return nsOnly(timed(func() { trace.Gen(g) }), n)
		}},
		{[]string{"trace.read_ns"}, 20_000, func(n int) []float64 {
			g := trace.CacheTrace()
			g.Events = n
			var buf bytes.Buffer
			must(trace.Write(&buf, trace.Gen(g)))
			return nsOnly(timed(func() {
				tr, err := trace.Read(&buf)
				must(err)
				if len(tr.Events) != n {
					panic(fmt.Sprintf("trace.Read returned %d of %d events", len(tr.Events), n))
				}
			}), n)
		}},
		{[]string{"workload.genweb_ns"}, 20_000, func(n int) []float64 {
			wc := workload.DefaultWebConfig()
			wc.NumConns = n
			return nsOnly(timed(func() { workload.GenWeb(wc) }), n)
		}},
		{[]string{"whodunit.report_json_us"}, 200, func(n int) []float64 {
			var buf bytes.Buffer
			return usOnly(timed(func() {
				for i := 0; i < n; i++ {
					buf.Reset()
					must(fix.report.JSON(&buf))
				}
			}), n)
		}},
		{[]string{"whodunit.report_read_us"}, 100, func(n int) []float64 {
			var enc bytes.Buffer
			must(fix.report.JSON(&enc))
			return usOnly(timed(func() {
				for i := 0; i < n; i++ {
					_, err := whodunit.ReadReport(bytes.NewReader(enc.Bytes()))
					must(err)
				}
			}), n)
		}},
		{[]string{"whodunit.diff_us"}, 200, func(n int) []float64 {
			return usOnly(timed(func() {
				for i := 0; i < n; i++ {
					whodunit.Diff(fix.report, fix.other)
				}
			}), n)
		}},
		{[]string{"whodunit.folded_us"}, 200, func(n int) []float64 {
			return usOnly(timed(func() {
				for i := 0; i < n; i++ {
					fix.report.Folded(io.Discard)
				}
			}), n)
		}},
		{[]string{"whodunit.http_report_us", "whodunit.http_report_p90_us", "whodunit.http_diff_us"}, 200,
			func(n int) []float64 { return httpReads(fix.server, n) }},
	}
}

// switchCost is the two-thread ping-pong of vclock's BenchmarkThreadSwitch
// under engine k: each wake is one switch, two per round trip; n counts
// switches.
func switchCost(k vclock.EngineKind, n int) delta {
	s := vclock.New()
	s.SetEngine(k)
	defer s.Shutdown()
	qa, qb := s.NewQueue("a"), s.NewQueue("b")
	rounds := 0
	var echoF, countF vclock.Frame
	echoF = func(c *vclock.Coro, v any) vclock.Step {
		qa.Put(v)
		return c.Get(qb, echoF)
	}
	countF = func(c *vclock.Coro, v any) vclock.Step {
		rounds++
		qb.Put(v)
		return c.Get(qa, countF)
	}
	s.GoCoro("echo", func(c *vclock.Coro, _ any) vclock.Step { return c.Get(qb, echoF) })
	s.GoCoro("count", func(c *vclock.Coro, _ any) vclock.Step {
		qb.Put(struct{}{})
		return c.Get(qa, countF)
	})
	target := 100 // warm-up: both threads started, slices at capacity
	stop := func() bool { return rounds >= target }
	s.RunUntil(stop)
	return timed(func() {
		target = rounds + n/2
		s.RunUntil(stop)
	})
}

// loopCoros starts `threads` run-to-completion threads on s, each
// performing `each` rounds of step (one blocking operation per round).
func loopCoros(s *vclock.Sim, threads, each int, step func(c *vclock.Coro, k vclock.Frame) vclock.Step) {
	for t := 0; t < threads; t++ {
		left := each
		var loop vclock.Frame
		loop = func(c *vclock.Coro, _ any) vclock.Step {
			if left == 0 {
				return c.End()
			}
			left--
			return step(c, loop)
		}
		s.GoCoro(fmt.Sprintf("t%d", t), loop)
	}
}

// sleepDeep times one Sleep that goes through the event heap (a push
// and a pop) while 10000 other sleepers sit in it. Two threads sleep in
// step, so neither wake is ever the strictly earliest pending event and
// the kernel's advance-the-clock-in-place fast path never applies.
func sleepDeep(n int) []float64 {
	s := vclock.New()
	defer s.Shutdown()
	const sleepers = 10_000
	for i := 0; i < sleepers; i++ {
		s.GoCoro("sleeper", func(c *vclock.Coro, _ any) vclock.Step {
			return c.Sleep(24*3600*vclock.Second, func(c *vclock.Coro, _ any) vclock.Step { return c.End() })
		})
	}
	s.RunBefore(1) // park the sleepers, so the timed run is the two threads' rounds only
	loopCoros(s, 2, n/2, func(c *vclock.Coro, k vclock.Frame) vclock.Step { return c.Sleep(vclock.Microsecond, k) })
	end := vclock.Time(3600 * vclock.Second)
	return nsOnly(timed(func() { s.RunBefore(end) }), n/2*2)
}

// computeContended times CPU.Compute with 8 threads sharing 2 cores.
func computeContended(n int) []float64 {
	s := vclock.New()
	defer s.Shutdown()
	cpu := s.NewCPU("cpu", 2)
	loopCoros(s, 8, n/8, func(c *vclock.Coro, k vclock.Frame) vclock.Step {
		return c.Compute(cpu, 100*vclock.Microsecond, k)
	})
	return nsOnly(timed(s.Run), n/8*8)
}

// lockHandoff times an exclusive Lock that is always contended: 4
// threads, each holding the lock across a 1 µs sleep, so every Unlock
// hands the lock to a waiter.
func lockHandoff(n int) []float64 {
	s := vclock.New()
	defer s.Shutdown()
	l := s.NewLock("l")
	loopCoros(s, 4, n/4, func(c *vclock.Coro, k vclock.Frame) vclock.Step {
		return c.Lock(l, vclock.Exclusive, func(c *vclock.Coro, _ any) vclock.Step {
			return c.Sleep(vclock.Microsecond, func(c *vclock.Coro, _ any) vclock.Step {
				c.Unlock(l)
				return c.Goto(k)
			})
		})
	})
	return nsOnly(timed(s.Run), n/4*4)
}

// spawnExit times Go + first run + exit of a free-form thread, the way
// every stage worker starts.
func spawnExit(n int) []float64 {
	s := vclock.New()
	defer s.Shutdown()
	return nsOnly(timed(func() {
		for i := 0; i < n; i++ {
			s.Go("t", func(*vclock.Thread) {})
		}
		s.Run()
	}), n)
}

// threadBytes reports the heap plus stack bytes one parked thread costs
// under engine k, from n threads blocked on an empty queue: the figure
// the engine decision rule (ROADMAP) is judged by.
func threadBytes(k vclock.EngineKind, n int) []float64 {
	live := func() float64 {
		runtime.GC()
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/stacks:bytes"},
		}
		metrics.Read(s)
		return float64(s[0].Value.Uint64() + s[1].Value.Uint64())
	}
	before := live()
	s := vclock.New()
	s.SetEngine(k)
	q := s.NewQueue("never")
	for i := 0; i < n; i++ {
		if k == vclock.EngineGoroutine {
			s.Go("t", func(th *vclock.Thread) { th.Get(q) })
		} else {
			s.GoCoro("t", func(c *vclock.Coro, _ any) vclock.Step {
				return c.Get(q, func(c *vclock.Coro, _ any) vclock.Step { return c.End() })
			})
		}
	}
	s.Run()
	after := live()
	s.Shutdown()
	return []float64{(after - before) / float64(n)}
}

// epochBarrier times the sharded kernel: 4 time domains joined in a
// ring by 1 ms links, one ticker per domain. The first value is the
// wall time per epoch with no cross-domain traffic — the bare barrier;
// the second the extra wall time per Link.Send when every ticker sends
// 16 messages per epoch (64 per epoch in all).
func epochBarrier(n int) []float64 {
	const domains, perTick = 4, 16
	run := func(msgs int) delta {
		g := vclock.NewGroup(domains)
		defer g.Shutdown()
		links := make([]*vclock.Link, domains)
		for i := 0; i < domains; i++ {
			dst := g.Domain((i + 1) % domains)
			q := dst.NewQueue("in")
			dst.Go("drain", func(th *vclock.Thread) {
				for {
					th.Get(q)
				}
			})
			links[i] = g.Connect(g.Domain(i), q, vclock.Millisecond)
		}
		for i := 0; i < domains; i++ {
			link := links[i]
			loopCoros(g.Domain(i), 1, n, func(c *vclock.Coro, k vclock.Frame) vclock.Step {
				for m := 0; m < msgs; m++ {
					link.Send(m)
				}
				return c.Sleep(vclock.Millisecond, k)
			})
		}
		return timed(g.Run)
	}
	bare, loaded := run(0), run(perTick)
	return []float64{bare.perOp(n), (loaded.wallNS - bare.wallNS) / float64(n*domains*perTick)}
}

// The vm programs are those of vm's own step benchmarks: a straight-line
// counter loop, and the same loop with a short critical section — the
// shape every emulated-mode step executes.
const (
	vmStepProg = `
main:
	movi r1, 0x100
	movi r2, 1000000000
loop:
	store [r1], r2
	load  r3, [r1]
	add   r4, r3, r2
	sub   r5, r4, r3
	incm  [r1+1]
	addi  r2, r2, -1
	jne   r2, 0, loop
	halt
`
	vmCSProg = `
main:
	movi r1, 0x100
	movi r2, 1000000000
loop:
	lock 1
	store [r1], r2
	load  r3, [r1]
	unlock 1
	store [r1+2], r3
	addi  r2, r2, -1
	jne   r2, 0, loop
	halt
`
)

type nopTracer struct{}

func (nopTracer) OnAccess(vm.Access) {}
func (nopTracer) OnLock(int, int)    {}
func (nopTracer) OnUnlock(int, int)  {}

func vmStep(n int, emulated bool) []float64 {
	m := vm.NewMachine()
	src := vmStepProg
	if emulated {
		m.Mode = vm.ModeEmulateCS
		m.Tracer = nopTracer{}
		src = vmCSProg
	}
	_, err := m.Spawn(vm.MustAssemble("step", src), "main")
	must(err)
	for i := 0; i < 4096; i++ { // fill the translation cache
		m.Step()
	}
	return nsOnly(timed(func() {
		for i := 0; i < n; i++ {
			m.Step()
		}
	}), n)
}

func vmRunSingle(n int) []float64 {
	m := vm.NewMachine()
	_, err := m.Spawn(vm.MustAssemble("run_single", vmStepProg), "main")
	must(err)
	return nsOnly(timed(func() {
		if err := m.Run(int64(n)); err != nil && err != vm.ErrStepLimit {
			panic(err)
		}
	}), n)
}

// queuePushPop times the flow queue of §3.5: a producer and a consumer
// exchange n items over a request and a reply queue, so both locks keep
// distinct producer and consumer roles and are never demoted to
// non-flow. Each item is two Push/Pop pairs. In whodunit mode the
// critical sections run on the emulated machine under the shmflow
// tracker; in csprof mode they run natively.
func queuePushPop(mode whodunit.Mode, n int) delta {
	app := whodunit.NewApp("bench",
		whodunit.WithMode(mode),
		whodunit.WithFlowDetection(),
		whodunit.WithCores(2))
	st := app.Stage("srv")
	reqQ, ackQ := app.NewQueue("req"), app.NewQueue("ack")
	st.Go("consumer", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for i := 0; i < n; i++ {
			ackQ.Push(pr, reqQ.Pop(pr))
		}
	})
	st.Go("producer", func(th *whodunit.Thread, pr *whodunit.Probe) {
		st.BeginTxn(pr, "main", "request")
		for i := 0; i < n; i++ {
			reqQ.Push(pr, i)
			ackQ.Pop(pr)
		}
	})
	return timed(func() { app.Run() })
}

// inProbe runs body on a one-thread simulation against a fresh profiler
// in the given mode and returns what body measured.
func inProbe(mode profiler.Mode, body func(pr *profiler.Probe) delta) delta {
	s := vclock.New()
	defer s.Shutdown()
	cpu := s.NewCPU("cpu", 1)
	p := profiler.New("stage", mode)
	var c delta
	s.Go("w", func(th *vclock.Thread) { c = body(p.NewProbe(th, cpu)) })
	s.Run()
	return c
}

// probeCompute times Probe.Compute of an eighth of a sampling interval,
// the simulator round trip of the blocking Compute included.
func probeCompute(mode profiler.Mode, n int) []float64 {
	return nsOnly(inProbe(mode, func(pr *profiler.Probe) delta {
		defer pr.Exit(pr.Enter("hot"))
		pr.Compute(profiler.DefaultInterval) // create the tree path
		return timed(func() {
			for i := 0; i < n; i++ {
				pr.Compute(profiler.DefaultInterval / 8)
			}
		})
	}), n)
}

func enterExit(n int) []float64 {
	return nsOnly(inProbe(profiler.ModeWhodunit, func(pr *profiler.Probe) delta {
		defer pr.Exit(pr.Enter("serve"))
		return timed(func() {
			for i := 0; i < n; i++ {
				pr.Exit(pr.Enter("handler"))
			}
		})
	}), n)
}

// setTxn times a transaction-context switch between two contexts whose
// trees already exist (the §7.1 dictionary switch).
func setTxn(n int) []float64 {
	return nsOnly(inProbe(profiler.ModeWhodunit, func(pr *profiler.Probe) delta {
		defer pr.Exit(pr.Enter("serve"))
		root := pr.Profiler().Table.Root()
		ctx := [2]profiler.TxnCtxt{
			{Prefix: tranctx.Chain{7}, Local: root.Append(tranctx.HandlerHop("stage", "hit"))},
			{Prefix: tranctx.Chain{9}, Local: root.Append(tranctx.HandlerHop("stage", "miss"))},
		}
		for _, c := range ctx {
			pr.SetTxn(c)
			pr.Compute(profiler.DefaultInterval)
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				pr.SetTxn(ctx[i&1])
			}
		})
	}), n)
}

// populatedProfiler returns a profiler holding 256 transaction contexts
// with a 65-node tree each — the population a serve window retires.
func populatedProfiler() *profiler.Profiler {
	const contexts, leaves = 256, 64
	s := vclock.New()
	defer s.Shutdown()
	cpu := s.NewCPU("cpu", 1)
	p := profiler.New("stage", profiler.ModeWhodunit)
	frames := make([]string, leaves)
	for j := range frames {
		frames[j] = fmt.Sprintf("fn%d", j)
	}
	s.Go("w", func(th *vclock.Thread) {
		pr := p.NewProbe(th, cpu)
		defer pr.Exit(pr.Enter("main"))
		root := p.Table.Root()
		for i := 0; i < contexts; i++ {
			pr.SetTxn(profiler.TxnCtxt{
				Prefix: tranctx.Chain{tranctx.Synopsis(i + 1)},
				Local:  root.Append(tranctx.HandlerHop("stage", "h")),
			})
			for _, f := range frames {
				tok := pr.Enter(f)
				pr.Compute(profiler.DefaultInterval)
				pr.Exit(tok)
			}
		}
	})
	s.Run()
	return p
}

func cctPath(tr *cct.Tree, depth int) []cct.FrameID {
	ids := make([]cct.FrameID, depth)
	for i := range ids {
		ids[i] = tr.Frames().ID(fmt.Sprintf("f%d", i))
	}
	return ids
}

// cctAddSamples times a sample landing on an existing depth-8 path.
func cctAddSamples(n int) []float64 {
	tr := cct.New("(bench)")
	ids := cctPath(tr, 8)
	tr.AddSamplesIDs(ids, 1)
	return nsOnly(timed(func() {
		for i := 0; i < n; i++ {
			tr.AddSamplesIDs(ids, 1)
		}
	}), n)
}

// cctInsert times a sample landing on a depth-8 path none of whose
// nodes exist yet: a fresh outermost frame, so all 8 nodes are created.
func cctInsert(n int) []float64 {
	tr := cct.New("(bench)")
	ids := cctPath(tr, 8)
	first := make([]cct.FrameID, n)
	for i := range first {
		first[i] = tr.Frames().ID(fmt.Sprintf("entry%d", i))
	}
	return nsOnly(timed(func() {
		for i := 0; i < n; i++ {
			ids[0] = first[i]
			tr.AddSamplesIDs(ids, 1)
		}
	}), n)
}

// cctMergeFlatten times Merge and Flatten on a 584-node tree (fan-out
// 8, depth 3).
func cctMergeFlatten(n int) []float64 {
	build := func() *cct.Tree {
		tr := cct.New("(bench)")
		ids := make([]cct.FrameID, 3)
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				for c := 0; c < 8; c++ {
					ids[0] = tr.Frames().ID(fmt.Sprintf("a%d", a))
					ids[1] = tr.Frames().ID(fmt.Sprintf("b%d", b))
					ids[2] = tr.Frames().ID(fmt.Sprintf("c%d", c))
					tr.AddSamplesIDs(ids, 1)
				}
			}
		}
		return tr
	}
	dst, src := build(), build()
	merge := timed(func() {
		for i := 0; i < n; i++ {
			dst.Merge(src)
		}
	})
	flatten := timed(func() {
		for i := 0; i < n; i++ {
			src.Flatten()
		}
	})
	return []float64{merge.perOpUS(n), flatten.perOpUS(n)}
}

// ipcSendRecv times one request plus its response between two stages'
// endpoints, cycling over 64 transaction contexts at the requester.
func ipcSendRecv(n int) []float64 {
	return nsAllocs(inProbe(profiler.ModeWhodunit, func(prA *profiler.Probe) delta {
		prB := profiler.New("b", profiler.ModeWhodunit).NewProbe(prA.Thread(), nil)
		epA, epB := ipc.NewEndpoint("stage"), ipc.NewEndpoint("b")
		root := prA.Profiler().Table.Root()
		ctx := make([]profiler.TxnCtxt, 64)
		for i := range ctx {
			ctx[i] = profiler.TxnCtxt{Local: root.Append(tranctx.HandlerHop("stage", fmt.Sprintf("h%d", i)))}
		}
		round := func(i int) {
			prA.SetTxn(ctx[i%len(ctx)])
			epB.Recv(prB, epA.Send(prA, nil))
			epA.Recv(prA, epB.Send(prB, nil))
		}
		for i := range ctx {
			round(i)
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				round(i)
			}
		})
	}), n)
}

type discardPutter struct{ n int }

func (d *discardPutter) Put(any) { d.n++ }

// minidbOps runs op n times from one database thread against the TPC-W
// item table (10000 rows, 24 subjects).
func minidbOps(n int, op func(db *minidb.DB, pr *whodunit.Probe, item *minidb.Table, i int)) delta {
	app := whodunit.NewApp("bench", whodunit.WithMode(whodunit.ModeWhodunit))
	st := app.Stage("mysql")
	db := minidb.New(app.Sim(), "mysql", st.CPU())
	item := db.CreateTable("item", minidb.EngineMyISAM)
	rng := vclock.NewRNG(1)
	for i := 0; i < 10000; i++ {
		item.LoadRow(minidb.Row{ID: int64(i), Attrs: []minidb.Attr{
			{Name: "subject", Val: int64(i % 24)}, {Name: "sales", Val: int64(rng.Intn(100000))},
		}})
	}
	var c delta
	st.Go("mysqld", func(th *whodunit.Thread, pr *whodunit.Probe) {
		op(db, pr, item, 0) // build the column caches and tree paths
		c = timed(func() {
			for i := 0; i < n; i++ {
				op(db, pr, item, i)
			}
		})
	})
	app.Run()
	return c
}

// crosstalkAcquire times the lock observer on a contended acquisition
// with one blocker, plus the matching release.
func crosstalkAcquire(n int) []float64 {
	s := vclock.New()
	defer s.Shutdown()
	p := profiler.New("stage", profiler.ModeWhodunit)
	thread := func(name string) *vclock.Thread {
		th := s.Go(name, func(*vclock.Thread) {})
		th.Data = p.NewProbe(th, nil)
		return th
	}
	waiter, holder := thread("waiter"), []*vclock.Thread{thread("holder")}
	l := s.NewLock("l")
	m := crosstalk.NewMonitor(func(profiler.TxnCtxt) string { return "txn" }, nil)
	return nsOnly(timed(func() {
		for i := 0; i < n; i++ {
			m.LockAcquired(l, waiter, vclock.Exclusive, vclock.Microsecond, holder)
			m.LockReleased(l, waiter, vclock.Exclusive, vclock.Microsecond)
		}
	}), n)
}

// meshHop times one request through a one-service topology: inject,
// serve (a 10 µs Compute) and complete, one request in flight.
func meshHop(n int) []float64 {
	app := whodunit.NewApp("bench", whodunit.WithMode(whodunit.ModeWhodunit))
	svc := mesh.New(app).Service("svc", 1, func(c *mesh.Call) { c.Compute(10 * whodunit.Microsecond) })
	done := 0
	svc.OnComplete = func(req *mesh.Request, _ whodunit.Time) {
		if done++; done < n {
			svc.Inject(req)
		}
	}
	svc.Inject(&mesh.Request{Op: "get", Key: "k"})
	return nsOnly(timed(func() { app.RunUntil(func() bool { return done >= n }) }), n)
}

// httpReads times the server's read API on a finished serve run: n
// GET /report?format=json calls spread over the retained windows
// (median and 90th percentile) and n/2 GET /diff calls on adjacent
// windows.
func httpReads(srv *whodunit.Server, n int) []float64 {
	h := srv.Handler()
	entries := srv.Ring().Entries()
	get := func(url string) float64 {
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		us := float64(time.Since(start).Nanoseconds()) / 1e3
		if w.Code != http.StatusOK {
			panic(fmt.Sprintf("GET %s: status %d", url, w.Code))
		}
		return us
	}
	reports := make([]float64, n)
	for i := range reports {
		reports[i] = get(fmt.Sprintf("/report?window=%d&format=json", entries[i%len(entries)].Meta.Seq))
	}
	diffs := make([]float64, (n+1)/2)
	for i := range diffs {
		a := entries[i%(len(entries)-1)].Meta.Seq
		diffs[i] = get(fmt.Sprintf("/diff?a=%d&b=%d", a, a+1))
	}
	sort.Float64s(reports)
	sort.Float64s(diffs)
	return []float64{quantile(reports, 0.5), quantile(reports, 0.9), quantile(diffs, 0.5)}
}
