package profiler

import (
	"fmt"
	"testing"

	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// benchProbe runs body inside a one-thread sim against a fresh profiler.
func benchProbe(mode Mode, body func(pr *Probe)) {
	s := vclock.New()
	cpu := s.NewCPU("cpu", 1)
	p := New("stage", mode)
	s.Go("w", func(th *vclock.Thread) {
		body(p.NewProbe(th, cpu))
	})
	s.Run()
	s.Shutdown()
}

// BenchmarkProbeCompute measures the steady-state sampling path — Compute
// calls that accumulate phase and periodically take a sample into the
// current context's CCT — including the simulator round-trip each
// blocking Compute implies. Zero allocs/op is the contract (see
// TestComputeZeroAllocSteadyState).
func BenchmarkProbeCompute(b *testing.B) {
	for _, mode := range []Mode{ModeOff, ModeSampling, ModeWhodunit, ModeInstrumented} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			n := b.N
			benchProbe(mode, func(pr *Probe) {
				defer pr.Exit(pr.Enter("hot"))
				pr.Compute(DefaultInterval) // warm the tree path
				b.ResetTimer()
				for i := 0; i < n; i++ {
					pr.Compute(DefaultInterval / 8)
				}
			})
		})
	}
}

// BenchmarkSetTxnSwitch measures a transaction-context switch in
// Whodunit mode (the §7.1 CCT dictionary switch): compare against the
// current context, swap, and invalidate the probe's cached tree. The
// contexts carry synopsis-chain prefixes so the comparison exercises the
// chain path, and every other iteration is a redundant SetTxn (the
// same-context fast path).
func BenchmarkSetTxnSwitch(b *testing.B) {
	b.ReportAllocs()
	n := b.N
	benchProbe(ModeWhodunit, func(pr *Probe) {
		defer pr.Exit(pr.Enter("serve"))
		root := pr.Profiler().Table.Root()
		ctxA := TxnCtxt{Prefix: tranctx.Chain{7}, Local: root.Append(tranctx.HandlerHop("stage", "hit"))}
		ctxB := TxnCtxt{Prefix: tranctx.Chain{9}, Local: root.Append(tranctx.HandlerHop("stage", "miss"))}
		// Materialise both trees so the bench measures switching, not
		// first-touch tree creation.
		pr.SetTxn(ctxA)
		pr.Compute(DefaultInterval)
		pr.SetTxn(ctxB)
		pr.Compute(DefaultInterval)
		b.ResetTimer()
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				pr.SetTxn(ctxA)
			} else {
				pr.SetTxn(ctxB)
			}
			pr.SetTxn(pr.Txn()) // redundant switch: the fast path
		}
	})
}

// TestComputeZeroAllocSteadyState asserts the headline property of the
// interned hot path: once a probe's call stack and context tree exist,
// Probe.Compute allocates nothing in any mode — no string keys, no CCT
// dictionary lookups, no event boxing in the simulator.
func TestComputeZeroAllocSteadyState(t *testing.T) {
	for _, mode := range []Mode{ModeOff, ModeSampling, ModeWhodunit, ModeInstrumented} {
		var allocs float64
		benchProbe(mode, func(pr *Probe) {
			defer pr.Exit(pr.Enter("outer"))
			defer pr.Exit(pr.Enter("hot"))
			// Warm up: create the tree, its path nodes, and grow the
			// event-heap and stack capacities.
			for i := 0; i < 32; i++ {
				pr.Compute(DefaultInterval / 8)
			}
			allocs = testing.AllocsPerRun(200, func() {
				pr.Compute(DefaultInterval / 8)
			})
		})
		if allocs != 0 {
			t.Errorf("mode %s: Compute allocates %.2f allocs/op in steady state, want 0", mode, allocs)
		}
	}
}

// TestSetTxnSwitchZeroAllocSteadyState is the same contract for context
// switches: once both context trees exist, switching between them (and
// the samples that follow) allocates nothing.
func TestSetTxnSwitchZeroAllocSteadyState(t *testing.T) {
	var allocs float64
	benchProbe(ModeWhodunit, func(pr *Probe) {
		defer pr.Exit(pr.Enter("serve"))
		root := pr.Profiler().Table.Root()
		ctxA := TxnCtxt{Prefix: tranctx.Chain{7}, Local: root.Append(tranctx.HandlerHop("stage", "hit"))}
		ctxB := TxnCtxt{Prefix: tranctx.Chain{9}, Local: root.Append(tranctx.HandlerHop("stage", "miss"))}
		for i := 0; i < 8; i++ {
			pr.SetTxn(ctxA)
			pr.Compute(DefaultInterval)
			pr.SetTxn(ctxB)
			pr.Compute(DefaultInterval)
		}
		allocs = testing.AllocsPerRun(200, func() {
			pr.SetTxn(ctxA)
			pr.Compute(DefaultInterval)
			pr.SetTxn(ctxB)
			pr.Compute(DefaultInterval)
		})
	})
	if allocs != 0 {
		t.Errorf("SetTxn+Compute allocates %.2f allocs/op in steady state, want 0", allocs)
	}
}

// sink prevents the compiler from proving results unused.
var sink string

// BenchmarkTxnCtxtKey documents why Key is presentation-only: the
// rendered dictionary key costs string building the interned identity
// avoids.
func BenchmarkTxnCtxtKey(b *testing.B) {
	b.ReportAllocs()
	tb := tranctx.NewTable()
	tc := TxnCtxt{Prefix: tranctx.Chain{7, 9}, Local: tb.Root().Append(tranctx.HandlerHop("s", "h"))}
	for i := 0; i < b.N; i++ {
		sink = tc.Key()
	}
	if sink == "" {
		b.Fatal(fmt.Errorf("empty key"))
	}
}

// BenchmarkEnterName and BenchmarkEnterID are one Enter/Exit pair by
// frame name — interned on every call, a string hash — and by a FrameID
// interned once, which is how the models enter the frames they own.
func BenchmarkEnterName(b *testing.B) {
	b.ReportAllocs()
	pr := New("stage", ModeWhodunit).NewProbe(nil, nil)
	defer pr.Exit(pr.Enter("serve"))
	for i := 0; i < b.N; i++ {
		pr.Exit(pr.Enter("handler"))
	}
}

func BenchmarkEnterID(b *testing.B) {
	b.ReportAllocs()
	p := New("stage", ModeWhodunit)
	pr := p.NewProbe(nil, nil)
	defer pr.Exit(pr.Enter("serve"))
	id := p.Frames().ID("handler")
	for i := 0; i < b.N; i++ {
		pr.Exit(pr.EnterID(id))
	}
}

// BenchmarkCallCtxt is the send-point context of fourteen server threads
// of one stage, each parked two frames deep in its own handler under the
// root context — tomcat's workers inside servlet_<interaction> > db_rpc —
// asked round-robin. All fourteen extensions share the root's memo slot.
func BenchmarkCallCtxt(b *testing.B) {
	b.ReportAllocs()
	p := New("stage", ModeWhodunit)
	var probes [14]*Probe
	for i := range probes {
		probes[i] = p.NewProbe(nil, nil)
		probes[i].Enter(fmt.Sprint("servlet_", i))
		probes[i].Enter("db_rpc")
	}
	var sink TxnCtxt
	for i := 0; i < b.N; i++ {
		sink = probes[i%len(probes)].CallCtxt()
	}
	if sink.Local == nil {
		b.Fatal("no context")
	}
}
