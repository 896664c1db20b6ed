package whodunit_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices of README's "Performance"
// section. The benchmarks run the reduced-scale (Quick) experiments —
// the same code paths as the full runs in cmd/whodunit-bench — and
// report the headline quantity of each result as a custom metric, so
// `go test -bench=.` regenerates the shape of every paper result.

import (
	"testing"

	"whodunit"
	"whodunit/internal/event"
	"whodunit/internal/experiments"
	"whodunit/internal/profiler"
	"whodunit/internal/shmflow"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
	"whodunit/internal/vm"
)

func BenchmarkFig8ApacheProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8Apache(experiments.QuickScale)
		b.ReportMetric(r.ServeSharePct, "process_conn_%")
		b.ReportMetric(r.AcceptSharePct, "accept_%")
		b.ReportMetric(float64(r.Flows), "flows")
	}
}

func BenchmarkFig9SquidProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9Squid(experiments.QuickScale)
		b.ReportMetric(r.HitWritePct, "write_hit_%")
		b.ReportMetric(r.MissWritePct, "write_miss_%")
	}
}

func BenchmarkFig10HaboobProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10Haboob(experiments.QuickScale)
		b.ReportMetric(r.HitWritePct, "write_hit_%")
		b.ReportMetric(r.MissWritePct, "write_miss_%")
	}
}

func BenchmarkTable1TPCWProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1TPCW(experiments.QuickTPCW)
		for _, row := range r.Rows {
			switch row.Interaction {
			case "BestSellers":
				b.ReportMetric(row.CPUSharePct, "bestsellers_cpu_%")
			case "SearchResult":
				b.ReportMetric(row.CPUSharePct, "searchresult_cpu_%")
			case "AdminConfirm":
				b.ReportMetric(row.MeanWaitMs, "admin_wait_ms")
			}
		}
	}
}

func BenchmarkFig11ResponseTimes(b *testing.B) {
	sweep := experiments.TPCWScale{Duration: experiments.QuickTPCW.Duration, Sweep: []int{100}}
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11ResponseTimes(sweep)
		row := r.Rows[0]
		b.ReportMetric(row.AdminOrig, "admin_orig_ms")
		b.ReportMetric(row.AdminOpt, "admin_opt_ms")
		b.ReportMetric(row.BestOrig, "best_orig_ms")
		b.ReportMetric(row.BestCached, "best_cached_ms")
	}
}

func BenchmarkFig12Throughput(b *testing.B) {
	sweep := experiments.TPCWScale{Duration: experiments.QuickTPCW.Duration, Sweep: []int{300}}
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12Throughput(sweep)
		b.ReportMetric(r.Rows[0].OriginalPerMin, "orig_tx_min")
		b.ReportMetric(r.Rows[0].CachedPerMin, "cached_tx_min")
	}
}

func BenchmarkTable2ProfilerOverhead(b *testing.B) {
	sweep := experiments.TPCWScale{Duration: experiments.QuickTPCW.Duration}
	for i := 0; i < b.N; i++ {
		r := experiments.Table2Overhead(sweep)
		for _, row := range r.Rows {
			switch row.Mode {
			case "no profile":
				b.ReportMetric(row.PerMin, "none_tx_min")
			case "whodunit":
				b.ReportMetric(row.PerMin, "whodunit_tx_min")
			case "gprof":
				b.ReportMetric(row.PerMin, "gprof_tx_min")
			}
		}
	}
}

func BenchmarkTable3EmulationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table3Emulation()
		push := r.Rows[0]
		b.ReportMetric(float64(push.DirectCycles), "push_direct_cyc")
		b.ReportMetric(float64(push.TranslateCycles), "push_translate_cyc")
		b.ReportMetric(float64(push.CachedEmuCycles), "push_cached_cyc")
	}
}

func BenchmarkSec92ApacheOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ServerOverheads(experiments.QuickScale)
		b.ReportMetric(r.Rows[0].OverheadPct, "apache_overhead_%")
	}
}

func BenchmarkSec93ProxyOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ServerOverheads(experiments.QuickScale)
		b.ReportMetric(r.Rows[1].OverheadPct, "squid_overhead_%")
		b.ReportMetric(r.Rows[2].OverheadPct, "haboob_overhead_%")
	}
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationLoopPruning measures context growth with and without
// §4.1's loop pruning for a long persistent connection. Without pruning,
// the context (and the CCT dictionary) grows with every request.
func BenchmarkAblationLoopPruning(b *testing.B) {
	const rounds = 500
	for i := 0; i < b.N; i++ {
		// With pruning (Append): bounded table.
		tb := tranctx.NewTable()
		c := tb.Root()
		for r := 0; r < rounds; r++ {
			c = c.Append(tranctx.HandlerHop("srv", "read"))
			c = c.Append(tranctx.HandlerHop("srv", "write"))
		}
		pruned := tb.Size()
		// Without pruning (Extend): linear growth.
		tb2 := tranctx.NewTable()
		c2 := tb2.Root()
		for r := 0; r < rounds; r++ {
			c2 = c2.Extend(tranctx.HandlerHop("srv", "read"))
			c2 = c2.Extend(tranctx.HandlerHop("srv", "write"))
		}
		b.ReportMetric(float64(pruned), "pruned_ctxts")
		b.ReportMetric(float64(tb2.Size()), "unpruned_ctxts")
	}
}

// BenchmarkAblationSynopsisSize compares the per-message byte cost of
// 4-byte synopses (§7.4) against shipping rendered full contexts.
func BenchmarkAblationSynopsisSize(b *testing.B) {
	tb := tranctx.NewTable()
	c := tb.Root().
		Extend(tranctx.CallHop("web", "main", "serve", "rpc_call", "send")).
		Extend(tranctx.CallHop("app", "main", "servlet", "query", "send"))
	var synBytes, fullBytes int
	for i := 0; i < b.N; i++ {
		chain := tranctx.Chain{c.Synopsis()}
		synBytes = chain.WireSize()
		fullBytes = len(c.String())
	}
	b.ReportMetric(float64(synBytes), "synopsis_bytes")
	b.ReportMetric(float64(fullBytes), "full_ctxt_bytes")
}

// BenchmarkAblationNativeFallback measures the cycle cost of an allocator
// critical section with and without §7.2's non-flow native fallback.
func BenchmarkAblationNativeFallback(b *testing.B) {
	run := func(demote bool) int64 {
		m := vm.NewMachine()
		m.Mode = vm.ModeEmulateCS
		tr := shmflow.NewTracker()
		tr.ThreadCtxt = func(int32) shmflow.Token { return 1 }
		if demote {
			tr.OnNonFlow = m.SetNonFlow
		}
		m.Tracer = tr
		var total int64
		for i := 0; i < 30; i++ {
			t, err := m.Spawn(shmflow.AllocWork, "main")
			if err != nil {
				b.Fatal(err)
			}
			t.Regs[2], t.Regs[4], t.Regs[9] = shmflow.FreeHead, int64(0x3100+16*i), 0x8000
			if err := m.Run(100000); err != nil {
				b.Fatal(err)
			}
			total += t.Cycles
			m.Reap()
		}
		return total
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(false)), "always_emulate_cyc")
		b.ReportMetric(float64(run(true)), "native_fallback_cyc")
	}
}

// BenchmarkEventDispatch measures the raw per-event cost of the
// context-propagating event loop (the library hot path).
func BenchmarkEventDispatch(b *testing.B) {
	tb := tranctx.NewTable()
	l := event.NewLoop("srv", tb)
	h := &event.Handler{Name: "h", Fn: func(l *event.Loop, ev *event.Event) {}}
	ev := &event.Event{Handler: h, Ctxt: tb.Root()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Dispatch(ev)
	}
}

// BenchmarkQueuePushPopEmulated measures a whodunit-mode flow-queue
// round trip: Push and Pop critical sections emulated on the app's
// machine with the shmflow tracker live, token plumbing, §3.5 context
// adoption and the probe frames included — the full per-hand-off cost a
// queue-connected app pays. A reply queue keeps producer and consumer
// roles distinct on both legs, so neither lock is demoted to non-flow
// and the traced path stays hot.
func BenchmarkQueuePushPopEmulated(b *testing.B) {
	b.ReportAllocs()
	app := whodunit.NewApp("bench",
		whodunit.WithMode(whodunit.ModeWhodunit),
		whodunit.WithFlowDetection(),
		whodunit.WithCores(2))
	st := app.Stage("srv")
	reqQ := app.NewQueue("req")
	ackQ := app.NewQueue("ack")
	n := b.N
	st.Go("consumer", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for i := 0; i < n; i++ {
			v := reqQ.Pop(pr)
			ackQ.Push(pr, v)
		}
	})
	st.Go("producer", func(th *whodunit.Thread, pr *whodunit.Probe) {
		st.BeginTxn(pr, "main", "request")
		for i := 0; i < n; i++ {
			reqQ.Push(pr, i)
			ackQ.Pop(pr)
		}
	})
	b.ResetTimer()
	app.Run()
}

// BenchmarkProbeCompute measures the profiler hot path: Compute calls
// with sampling under Whodunit mode, including the simulator round-trip
// each blocking Compute implies.
func BenchmarkProbeCompute(b *testing.B) {
	b.ReportAllocs()
	s := vclock.New()
	cpu := s.NewCPU("cpu", 1)
	p := profiler.New("s", profiler.ModeWhodunit)
	n := b.N
	s.Go("w", func(th *vclock.Thread) {
		pr := p.NewProbe(th, cpu)
		defer pr.Exit(pr.Enter("hot"))
		for i := 0; i < n; i++ {
			pr.Compute(profiler.DefaultInterval / 8)
		}
	})
	b.ResetTimer()
	s.Run()
	s.Shutdown()
}
