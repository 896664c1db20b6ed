package profiler

import (
	"testing"

	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// harness runs body inside a one-thread sim with a probe and returns the
// profiler afterwards; a crash of the thread fails the test.
func harness(t *testing.T, mode Mode, body func(pr *Probe)) *Profiler {
	t.Helper()
	s := vclock.New()
	cpu := s.NewCPU("cpu", 1)
	p := New("stage", mode)
	s.Go("worker", func(th *vclock.Thread) {
		body(p.NewProbe(th, cpu))
	})
	s.Run()
	s.Shutdown()
	// A panic in body ends the run and is recorded, not raised.
	if c := s.Crashed(); c != nil {
		t.Fatalf("%v\n%s", c, c.Stack)
	}
	return p
}

func TestSamplingCountsAreExact(t *testing.T) {
	p := harness(t, ModeSampling, func(pr *Probe) {
		defer pr.Exit(pr.Enter("main"))
		// 10 intervals of CPU => exactly 10 samples.
		pr.Compute(10 * DefaultInterval)
	})
	if p.TotalSamples() != 10 {
		t.Fatalf("samples = %d, want 10", p.TotalSamples())
	}
	tr := p.Entries()[0].Tree
	if n, ok := tr.Find("main"); !ok || n.Self != 10 {
		t.Fatalf("main self = %+v, want 10", n)
	}
}

func TestSamplingPhaseCarriesAcrossComputes(t *testing.T) {
	half := DefaultInterval / 2
	p := harness(t, ModeSampling, func(pr *Probe) {
		defer pr.Exit(pr.Enter("f"))
		for i := 0; i < 20; i++ {
			pr.Compute(half)
		}
	})
	want := int64(20*half) / int64(DefaultInterval) // exact phase accumulation
	if got := p.TotalSamples(); got != want {
		t.Fatalf("samples = %d, want %d (phase accumulation)", got, want)
	}
	if want < 9 {
		t.Fatalf("test misconfigured: want=%d", want)
	}
}

func TestModeOffTakesNoSamplesAndNoOverhead(t *testing.T) {
	p := harness(t, ModeOff, func(pr *Probe) {
		defer pr.Exit(pr.Enter("main"))
		pr.Compute(100 * DefaultInterval)
	})
	if p.TotalSamples() != 0 {
		t.Fatalf("off mode took %d samples", p.TotalSamples())
	}
	if _, _, _, ov := p.Stats(); ov != 0 {
		t.Fatalf("off mode charged overhead %v", ov)
	}
}

func TestSamplesLandOnCurrentStack(t *testing.T) {
	p := harness(t, ModeSampling, func(pr *Probe) {
		tok := pr.Enter("main")
		inner := pr.Enter("inner")
		pr.Compute(4 * DefaultInterval)
		pr.Exit(inner)
		pr.Compute(6 * DefaultInterval)
		pr.Exit(tok)
	})
	tr := p.Entries()[0].Tree
	if n, _ := tr.Find("main", "inner"); n.Self != 4 {
		t.Fatalf("inner self = %d, want 4", n.Self)
	}
	if n, _ := tr.Find("main"); n.Self != 6 || n.Inclusive != 10 {
		t.Fatalf("main self=%d incl=%d, want 6/10", n.Self, n.Inclusive)
	}
}

func TestWhodunitSeparatesContexts(t *testing.T) {
	p := harness(t, ModeWhodunit, func(pr *Probe) {
		defer pr.Exit(pr.Enter("serve"))
		ctxA := TxnCtxt{Local: pr.Profiler().Table.Root().Append(tranctx.HandlerHop("stage", "hit"))}
		ctxB := TxnCtxt{Local: pr.Profiler().Table.Root().Append(tranctx.HandlerHop("stage", "miss"))}
		pr.SetTxn(ctxA)
		pr.Compute(3 * DefaultInterval)
		pr.SetTxn(ctxB)
		pr.Compute(7 * DefaultInterval)
	})
	shares := p.Shares()
	if len(shares) != 2 {
		t.Fatalf("contexts = %d, want 2: %+v", len(shares), shares)
	}
	if shares[0].Samples != 7 || shares[1].Samples != 3 {
		t.Fatalf("shares = %+v, want 7 and 3", shares)
	}
	if shares[0].Label != "stage@miss" {
		t.Fatalf("top context = %q, want stage@miss", shares[0].Label)
	}
}

func TestSamplingModeIgnoresContexts(t *testing.T) {
	p := harness(t, ModeSampling, func(pr *Probe) {
		defer pr.Exit(pr.Enter("serve"))
		pr.SetTxn(TxnCtxt{Local: pr.Profiler().Table.Root().Append(tranctx.HandlerHop("stage", "x"))})
		pr.Compute(5 * DefaultInterval)
	})
	if len(p.Entries()) != 1 {
		t.Fatalf("csprof mode should keep one tree, got %d", len(p.Entries()))
	}
}

func TestInstrumentedCountsCallsAndCharges(t *testing.T) {
	p := harness(t, ModeInstrumented, func(pr *Probe) {
		for i := 0; i < 50; i++ {
			tok := pr.Enter("f")
			pr.Compute(DefaultInterval / 10)
			pr.Exit(tok)
		}
	})
	_, calls, _, ov := p.Stats()
	if calls != 50 {
		t.Fatalf("calls = %d, want 50", calls)
	}
	if ov < 50*DefaultOverhead.PerCall {
		t.Fatalf("overhead %v < 50 per-call charges", ov)
	}
	if n, _ := p.Merged().Find("f"); n.Calls != 50 {
		t.Fatal("call counts not in CCT")
	}
}

func TestOverheadOrdering(t *testing.T) {
	// For a call-dense workload, modelled overhead must rank
	// gprof >> csprof >= off, with whodunit only slightly above csprof —
	// the shape of Table 2.
	demand := func(mode Mode, switches bool) vclock.Duration {
		var total vclock.Duration
		s := vclock.New()
		cpu := s.NewCPU("cpu", 1)
		p := New("stage", mode)
		s.Go("w", func(th *vclock.Thread) {
			pr := p.NewProbe(th, cpu)
			root := p.Table.Root()
			for i := 0; i < 200; i++ {
				if switches {
					which := "a"
					if i%2 == 0 {
						which = "b"
					}
					pr.SetTxn(TxnCtxt{Local: root.Append(tranctx.HandlerHop("stage", which))})
				}
				tok := pr.Enter("handler")
				in := pr.Enter("work")
				// Call-dense inner work: 100 per-row calls per handler.
				pr.ComputeN(DefaultInterval/4, 100)
				pr.Exit(in)
				pr.Exit(tok)
			}
		})
		s.Run()
		s.Shutdown()
		total = cpu.Busy()
		return total
	}
	off := demand(ModeOff, false)
	cs := demand(ModeSampling, false)
	who := demand(ModeWhodunit, true)
	gp := demand(ModeInstrumented, false)
	if !(off < cs && cs <= who && who < gp) {
		t.Fatalf("overhead ordering wrong: off=%v csprof=%v whodunit=%v gprof=%v", off, cs, who, gp)
	}
	// gprof should cost several times the sampling overhead here.
	if (gp - off) < 3*(cs-off) {
		t.Fatalf("gprof overhead %v not >> csprof overhead %v", gp-off, cs-off)
	}
	// Whodunit's extra cost over csprof should be small relative to csprof's
	// own overhead (the paper reports +0.1% on top of csprof's <3%).
	if (who - cs) > (cs - off) {
		t.Fatalf("whodunit extra %v too large vs csprof %v", who-cs, cs-off)
	}
}

func TestCallCtxtIncludesStack(t *testing.T) {
	p := harness(t, ModeWhodunit, func(pr *Probe) {
		tok := pr.Enter("main")
		in := pr.Enter("rpc_call")
		tc := pr.CallCtxt()
		hops := tc.Local.Hops()
		if len(hops) != 1 || hops[0].Label != "main>rpc_call" {
			t.Errorf("call ctxt hops = %v", hops)
		}
		pr.Exit(in)
		pr.Exit(tok)
	})
	_ = p
}

func TestExitBadTokenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad exit token should panic")
		}
	}()
	p := New("s", ModeOff)
	s := vclock.New()
	cpu := s.NewCPU("c", 1)
	var pr *Probe
	s.Go("w", func(th *vclock.Thread) { pr = p.NewProbe(th, cpu) })
	s.Run()
	pr.Exit(5)
}

func TestSetTxnSameKeyIsFree(t *testing.T) {
	p := harness(t, ModeWhodunit, func(pr *Probe) {
		c := pr.Txn()
		for i := 0; i < 10; i++ {
			pr.SetTxn(c)
		}
		pr.Compute(DefaultInterval)
	})
	if _, _, sw, _ := p.Stats(); sw != 0 {
		t.Fatalf("redundant SetTxn counted %d switches", sw)
	}
}

func TestMergedCombinesContexts(t *testing.T) {
	p := harness(t, ModeWhodunit, func(pr *Probe) {
		defer pr.Exit(pr.Enter("f"))
		root := pr.Profiler().Table.Root()
		pr.SetTxn(TxnCtxt{Local: root.Append(tranctx.HandlerHop("s", "a"))})
		pr.Compute(2 * DefaultInterval)
		pr.SetTxn(TxnCtxt{Local: root.Append(tranctx.HandlerHop("s", "b"))})
		pr.Compute(3 * DefaultInterval)
	})
	m := p.Merged()
	if n, _ := m.Find("f"); m.Total() != 5 || n.Self != 5 {
		t.Fatalf("merged total = %d f=%+v", m.Total(), n)
	}
}

func TestTxnCtxtKeyDistinguishesPrefix(t *testing.T) {
	tb := tranctx.NewTable()
	a := TxnCtxt{Local: tb.Root()}
	b := TxnCtxt{Prefix: tranctx.Chain{7}, Local: tb.Root()}
	if a.Key() == b.Key() {
		t.Fatal("prefix must affect the context key")
	}
	if b.Label() != "[00000007]" {
		t.Fatalf("label = %q", b.Label())
	}
}
