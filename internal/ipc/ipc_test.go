package ipc

import (
	"bytes"
	"net"
	"testing"

	"whodunit/internal/profiler"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// twoStage builds the Figure 6/7 scenario: a caller stage with transaction
// paths through foo and bar calling an RPC service on a callee stage, over
// simulator queues.
func twoStage(t *testing.T) (callerProf, calleeProf *profiler.Profiler, run func(paths []string)) {
	t.Helper()
	callerProf = profiler.New("caller", profiler.ModeWhodunit)
	calleeProf = profiler.New("callee", profiler.ModeWhodunit)

	run = func(paths []string) {
		s := vclock.New()
		cpu := s.NewCPU("cpu", 2)
		reqQ := s.NewQueue("req")
		respQ := s.NewQueue("resp")
		calleeEP := NewEndpoint("callee")
		callerEP := NewEndpoint("caller")

		s.Go("callee", func(th *vclock.Thread) {
			pr := calleeProf.NewProbe(th, cpu)
			for i := 0; i < len(paths); i++ {
				msg := th.Get(reqQ).(Msg)
				if kind := calleeEP.Recv(pr, msg); kind != Request {
					t.Errorf("callee classified %v, want request", kind)
				}
				func() {
					defer pr.Exit(pr.Enter("svc_run"))
					defer pr.Exit(pr.Enter("callee_rpc_svc"))
					pr.Compute(10 * profiler.DefaultInterval)
					defer pr.Exit(pr.Enter("send"))
					respQ.Put(calleeEP.Send(pr, "resp"))
				}()
			}
		})
		s.Go("caller", func(th *vclock.Thread) {
			pr := callerProf.NewProbe(th, cpu)
			for _, path := range paths {
				func() {
					defer pr.Exit(pr.Enter("main_caller"))
					defer pr.Exit(pr.Enter(path))
					defer pr.Exit(pr.Enter("rpc_call"))
					pr.Compute(2 * profiler.DefaultInterval)
					before := pr.Txn().Key()
					reqQ.Put(callerEP.Send(pr, "req"))
					msg := th.Get(respQ).(Msg)
					if kind := callerEP.Recv(pr, msg); kind != Response {
						t.Errorf("caller classified %v, want response", kind)
					}
					if pr.Txn().Key() != before {
						t.Errorf("response did not restore caller context: %q != %q", pr.Txn().Key(), before)
					}
					pr.Compute(profiler.DefaultInterval)
				}()
			}
		})
		s.Run()
		s.Shutdown()
	}
	return callerProf, calleeProf, run
}

func TestRequestEstablishesCalleeContext(t *testing.T) {
	_, calleeProf, run := twoStage(t)
	run([]string{"foo"})
	entries := calleeProf.Entries()
	// Root tree (created on probe init has no samples) plus the foo-request
	// tree with all 10 samples.
	var withPrefix int
	for _, e := range entries {
		if len(e.Ctxt.Prefix) == 1 && e.Tree.Total() == 10 {
			withPrefix++
		}
	}
	if withPrefix != 1 {
		t.Fatalf("callee trees: %+v", entries)
	}
}

func TestTwoTransactionPathsSeparateCCTs(t *testing.T) {
	// §5: RPCs through foo and bar must land in two distinct callee CCTs.
	_, calleeProf, run := twoStage(t)
	run([]string{"foo", "bar", "foo"})
	counts := map[string]int64{}
	for _, e := range calleeProf.Entries() {
		if len(e.Ctxt.Prefix) > 0 {
			counts[e.Key] = e.Tree.Total()
		}
	}
	if len(counts) != 2 {
		t.Fatalf("callee context trees = %v, want 2", counts)
	}
	var totals []int64
	for _, v := range counts {
		totals = append(totals, v)
	}
	if totals[0]+totals[1] != 30 {
		t.Fatalf("total callee samples = %v", totals)
	}
	// One path was taken twice.
	if !(totals[0] == 20 && totals[1] == 10 || totals[0] == 10 && totals[1] == 20) {
		t.Fatalf("per-context samples = %v, want 20/10 split", totals)
	}
}

func TestCallerSamplesStayLocal(t *testing.T) {
	callerProf, _, run := twoStage(t)
	run([]string{"foo", "bar"})
	for _, e := range callerProf.Entries() {
		if len(e.Ctxt.Prefix) != 0 {
			t.Fatalf("caller acquired a remote prefix: %+v", e.Ctxt)
		}
	}
	if callerProf.TotalSamples() != 6 {
		t.Fatalf("caller samples = %d, want 6", callerProf.TotalSamples())
	}
}

func TestSendRecordsForStitching(t *testing.T) {
	s := vclock.New()
	cpu := s.NewCPU("cpu", 1)
	p := profiler.New("web", profiler.ModeWhodunit)
	ep := NewEndpoint("web")
	s.Go("t", func(th *vclock.Thread) {
		pr := p.NewProbe(th, cpu)
		defer pr.Exit(pr.Enter("main"))
		defer pr.Exit(pr.Enter("send"))
		ep.Send(pr, 1)
		ep.Send(pr, 2) // same chain: recorded once
	})
	s.Run()
	s.Shutdown()
	recs := ep.Sends()
	if len(recs) != 1 {
		t.Fatalf("send records = %+v, want 1", recs)
	}
	if recs[0].Chain == "" || recs[0].FromKey == "" {
		t.Fatalf("record incomplete: %+v", recs[0])
	}
}

func TestChainGrowsAcrossTiers(t *testing.T) {
	// Tier1 -> tier2 -> tier3: tier3's request prefix has two synopses;
	// tier2 recognises tier3's response; tier1 recognises tier2's.
	s := vclock.New()
	cpu := s.NewCPU("cpu", 3)
	p1 := profiler.New("t1", profiler.ModeWhodunit)
	p2 := profiler.New("t2", profiler.ModeWhodunit)
	p3 := profiler.New("t3", profiler.ModeWhodunit)
	e1, e2, e3 := NewEndpoint("t1"), NewEndpoint("t2"), NewEndpoint("t3")
	q12, q21 := s.NewQueue("q12"), s.NewQueue("q21")
	q23, q32 := s.NewQueue("q23"), s.NewQueue("q32")

	var tier3Prefix int
	s.Go("t3", func(th *vclock.Thread) {
		pr := p3.NewProbe(th, cpu)
		msg := th.Get(q23).(Msg)
		if e3.Recv(pr, msg) != Request {
			t.Error("t3 expected request")
		}
		tier3Prefix = len(pr.Txn().Prefix)
		q32.Put(e3.Send(pr, nil))
	})
	s.Go("t2", func(th *vclock.Thread) {
		pr := p2.NewProbe(th, cpu)
		msg := th.Get(q12).(Msg)
		if e2.Recv(pr, msg) != Request {
			t.Error("t2 expected request")
		}
		func() {
			defer pr.Exit(pr.Enter("query_db"))
			q23.Put(e2.Send(pr, nil))
		}()
		if e2.Recv(pr, th.Get(q32).(Msg)) != Response {
			t.Error("t2 expected response")
		}
		q21.Put(e2.Send(pr, nil))
	})
	s.Go("t1", func(th *vclock.Thread) {
		pr := p1.NewProbe(th, cpu)
		defer pr.Exit(pr.Enter("main"))
		q12.Put(e1.Send(pr, nil))
		if e1.Recv(pr, th.Get(q21).(Msg)) != Response {
			t.Error("t1 expected response")
		}
	})
	s.Run()
	s.Shutdown()
	if tier3Prefix != 2 {
		t.Fatalf("tier3 prefix length = %d, want 2", tier3Prefix)
	}
}

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := Msg{Chain: tranctx.Chain{1, 2, 3}, Payload: []byte("hello")}
	if err := WriteMsg(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Chain.Equal(msg.Chain) || string(got.Payload) != "hello" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestWireErrors(t *testing.T) {
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("short header should fail")
	}
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 9, 1})); err == nil {
		t.Fatal("truncated body should fail")
	}
	if _, err := ReadMsg(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("oversized frame should fail")
	}
}

// TestRecvHostileChains: a chain off the wire is another program's
// bytes. Synopses far beyond anything this endpoint's stage issued, and
// no synopses at all, classify as requests — adopted as the opaque prefix
// they are — and leave the sent dictionary exactly as large as it was:
// only Send grows it.
func TestRecvHostileChains(t *testing.T) {
	prof := profiler.New("server", profiler.ModeWhodunit)
	pr := prof.NewProbe(nil, nil) // a thread and a CPU are for Compute only
	var wire bytes.Buffer
	c := &Conn{E: NewEndpoint("server"), RW: &wire}
	defer pr.Exit(pr.Enter("serve"))
	if err := c.Send(pr, nil); err != nil { // one real slot to miss
		t.Fatal(err)
	}
	wire.Reset()
	slots := c.E.Slots()
	for _, chain := range []tranctx.Chain{
		{0xffffffff, 0xffffffff},
		{0xffffffff, 0, 0xffffffff},
		{},
	} {
		if err := WriteMsg(&wire, Msg{Chain: chain, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		payload, kind, err := c.Recv(pr)
		if err != nil || string(payload) != "x" {
			t.Fatalf("chain %v: payload %q, error %v", chain, payload, err)
		}
		if kind != Request {
			t.Errorf("chain %v classified %v, want request", chain, kind)
		}
		if got := pr.Txn(); !got.Prefix.Equal(chain) || got.Local != prof.Table.Root() {
			t.Errorf("chain %v: adopted context %s", chain, got.Label())
		}
		if c.E.Slots() != slots {
			t.Fatalf("chain %v grew the sent dictionary from %d to %d slots", chain, slots, c.E.Slots())
		}
	}
}

func TestConnOverNetPipe(t *testing.T) {
	// The real-transport path: two endpoints over a net.Pipe, each side
	// with its own profiler, no simulator involved.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	clientProf := profiler.New("client", profiler.ModeWhodunit)
	serverProf := profiler.New("server", profiler.ModeWhodunit)
	// Probes need a thread/CPU only for Compute; context operations work
	// without them, so pass nil-safe stand-ins via a tiny sim.
	s := vclock.New()
	cpu := s.NewCPU("cpu", 1)
	var clientPr, serverPr *profiler.Probe
	s.Go("init", func(th *vclock.Thread) {
		clientPr = clientProf.NewProbe(th, cpu)
		serverPr = serverProf.NewProbe(th, cpu)
	})
	s.Run()

	cc := &Conn{E: NewEndpoint("client"), RW: a}
	sc := &Conn{E: NewEndpoint("server"), RW: b}

	done := make(chan error, 1)
	go func() {
		payload, kind, err := sc.Recv(serverPr)
		if err == nil && (kind != Request || string(payload) != "ping") {
			t.Errorf("server got %v %q", kind, payload)
		}
		if err == nil {
			err = sc.Send(serverPr, []byte("pong"))
		}
		done <- err
	}()
	if err := cc.Send(clientPr, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	payload, kind, err := cc.Recv(clientPr)
	if err != nil {
		t.Fatal(err)
	}
	if kind != Response || string(payload) != "pong" {
		t.Fatalf("client got %v %q", kind, payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
