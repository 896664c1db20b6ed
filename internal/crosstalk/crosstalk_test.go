package crosstalk

import (
	"strings"
	"testing"

	"whodunit/internal/profiler"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// labelClassifier returns the last hop label of the local context.
func labelClassifier(tc profiler.TxnCtxt) string {
	if tc.Local == nil || tc.Local.IsRoot() {
		return "(none)"
	}
	return tc.Local.Last().Label
}

// setup builds a sim, profiler, monitored lock and a helper that spawns a
// thread running a transaction of a given type.
func setup() (*vclock.Sim, *profiler.Profiler, *vclock.Lock, *Monitor) {
	s := vclock.New()
	p := profiler.New("db", profiler.ModeWhodunit)
	l := s.NewLock("item_table")
	mon := NewMonitor(labelClassifier, nil)
	l.Observer = mon
	return s, p, l, mon
}

func spawnTxn(s *vclock.Sim, p *profiler.Profiler, cpu *vclock.CPU, l *vclock.Lock,
	at vclock.Time, txnType string, mode vclock.LockMode, hold vclock.Duration) {
	s.GoAt(at, txnType, func(th *vclock.Thread) {
		pr := p.NewProbe(th, cpu)
		th.Data = pr
		pr.SetTxn(profiler.TxnCtxt{Local: p.Table.Root().Append(tranctx.HandlerHop("db", txnType))})
		th.Lock(l, mode)
		th.Sleep(hold)
		th.Unlock(l)
	})
}

func TestCrosstalkPairRecorded(t *testing.T) {
	s, p, l, mon := setup()
	cpu := s.NewCPU("cpu", 4)
	// BestSellers holds exclusively 0-20ms; AdminConfirm arrives at 5ms.
	spawnTxn(s, p, cpu, l, 0, "BestSellers", vclock.Exclusive, 20*vclock.Millisecond)
	spawnTxn(s, p, cpu, l, vclock.Time(5*vclock.Millisecond), "AdminConfirm", vclock.Exclusive, vclock.Millisecond)
	s.Run()
	s.Shutdown()

	pairs := mon.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v, want 1", pairs)
	}
	pr := pairs[0]
	if pr.Waiter != "AdminConfirm" || pr.Holder != "BestSellers" {
		t.Fatalf("pair = %+v", pr)
	}
	if pr.Mean != 15*vclock.Millisecond {
		t.Fatalf("mean wait = %v, want 15ms", pr.Mean)
	}
	total, n := mon.WaitTotal("AdminConfirm")
	if total != 15*vclock.Millisecond || n != 1 {
		t.Fatalf("wait total = %v/%d", total, n)
	}
}

func TestCrosstalkBothDirections(t *testing.T) {
	// §6: crosstalk for (tA,tB) and (tB,tA) are measured independently.
	s, p, l, mon := setup()
	cpu := s.NewCPU("cpu", 4)
	spawnTxn(s, p, cpu, l, 0, "A", vclock.Exclusive, 10*vclock.Millisecond)
	spawnTxn(s, p, cpu, l, vclock.Time(2*vclock.Millisecond), "B", vclock.Exclusive, 10*vclock.Millisecond)
	// A second A arrives while B holds.
	spawnTxn(s, p, cpu, l, vclock.Time(12*vclock.Millisecond), "A", vclock.Exclusive, vclock.Millisecond)
	s.Run()
	s.Shutdown()

	var ab, ba bool
	for _, pr := range mon.Pairs() {
		if pr.Waiter == "B" && pr.Holder == "A" {
			ba = true
		}
		if pr.Waiter == "A" && pr.Holder == "B" {
			ab = true
		}
	}
	if !ab || !ba {
		t.Fatalf("expected both directions, got %+v", mon.Pairs())
	}
}

func TestSharedReadersDoNotCrosstalk(t *testing.T) {
	s, p, l, mon := setup()
	cpu := s.NewCPU("cpu", 4)
	for i := 0; i < 3; i++ {
		spawnTxn(s, p, cpu, l, 0, "Read", vclock.Shared, 5*vclock.Millisecond)
	}
	s.Run()
	s.Shutdown()
	if len(mon.Pairs()) != 0 {
		t.Fatalf("readers should not wait: %+v", mon.Pairs())
	}
}

func TestWriterWaitsOnReadersAttributed(t *testing.T) {
	// The MyISAM situation: AdminConfirm (writer) waits for read-only
	// transactions holding the shared table lock.
	s, p, l, mon := setup()
	cpu := s.NewCPU("cpu", 4)
	spawnTxn(s, p, cpu, l, 0, "SearchResult", vclock.Shared, 30*vclock.Millisecond)
	spawnTxn(s, p, cpu, l, vclock.Time(vclock.Millisecond), "AdminConfirm", vclock.Exclusive, vclock.Millisecond)
	s.Run()
	s.Shutdown()
	pairs := mon.Pairs()
	if len(pairs) != 1 || pairs[0].Waiter != "AdminConfirm" || pairs[0].Holder != "SearchResult" {
		t.Fatalf("pairs = %+v", pairs)
	}
	if pairs[0].Mean != 29*vclock.Millisecond {
		t.Fatalf("mean = %v", pairs[0].Mean)
	}
}

func TestUnknownThreadsClassified(t *testing.T) {
	s := vclock.New()
	l := s.NewLock("l")
	mon := NewMonitor(labelClassifier, nil)
	l.Observer = mon
	s.Go("plain", func(th *vclock.Thread) { // no probe in Data
		th.Lock(l, vclock.Exclusive)
		th.Sleep(5 * vclock.Millisecond)
		th.Unlock(l)
	})
	s.GoAt(vclock.Time(vclock.Millisecond), "plain2", func(th *vclock.Thread) {
		th.Lock(l, vclock.Exclusive)
		th.Unlock(l)
	})
	s.Run()
	s.Shutdown()
	pairs := mon.Pairs()
	if len(pairs) != 1 || pairs[0].Waiter != "(unknown)" {
		t.Fatalf("pairs = %+v", pairs)
	}
}

func TestRenderOutput(t *testing.T) {
	s, p, l, mon := setup()
	cpu := s.NewCPU("cpu", 4)
	spawnTxn(s, p, cpu, l, 0, "X", vclock.Exclusive, 4*vclock.Millisecond)
	spawnTxn(s, p, cpu, l, vclock.Time(vclock.Millisecond), "Y", vclock.Exclusive, vclock.Millisecond)
	s.Run()
	s.Shutdown()
	var sb strings.Builder
	mon.Render(&sb)
	if !strings.Contains(sb.String(), "Y") || !strings.Contains(sb.String(), "X") {
		t.Fatalf("render missing rows: %s", sb.String())
	}
}

// TestMatrixAccumulation pins the aggregation arithmetic: repeated waits
// on the same (waiter, holder) pair accumulate count and total, the
// reported mean is total/count, and WaitTotal aggregates across holders.
func TestMatrixAccumulation(t *testing.T) {
	s, p, l, mon := setup()
	cpu := s.NewCPU("cpu", 8)
	// Three rounds: OrderDisplay holds 10ms, Home arrives mid-hold and
	// waits 6ms, 4ms, 2ms respectively.
	for i, wait := range []vclock.Duration{6 * vclock.Millisecond, 4 * vclock.Millisecond, 2 * vclock.Millisecond} {
		base := vclock.Time(i * int(20*vclock.Millisecond))
		spawnTxn(s, p, cpu, l, base, "OrderDisplay", vclock.Exclusive, 10*vclock.Millisecond)
		spawnTxn(s, p, cpu, l, base+vclock.Time(10*vclock.Millisecond-wait), "Home", vclock.Exclusive, vclock.Millisecond)
	}
	s.Run()
	s.Shutdown()

	pairs := mon.Pairs()
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v, want exactly the accumulated (Home, OrderDisplay) cell", pairs)
	}
	got := pairs[0]
	if got.Waiter != "Home" || got.Holder != "OrderDisplay" {
		t.Fatalf("pair = %+v", got)
	}
	if got.Count != 3 {
		t.Fatalf("count = %d, want 3 accumulated waits", got.Count)
	}
	if want := 12 * vclock.Millisecond; got.Total != want {
		t.Fatalf("total = %v, want %v", got.Total, want)
	}
	if want := 4 * vclock.Millisecond; got.Mean != want {
		t.Fatalf("mean = %v, want %v", got.Mean, want)
	}
	total, n := mon.WaitTotal("Home")
	if total != 12*vclock.Millisecond || n != 3 {
		t.Fatalf("WaitTotal(Home) = %v/%d, want 12ms/3", total, n)
	}
	if total, n := mon.WaitTotal("OrderDisplay"); total != 0 || n != 0 {
		t.Fatalf("WaitTotal(OrderDisplay) = %v/%d, want zero (it never waited)", total, n)
	}
}

// TestPairsSortedByTotalWait pins the matrix ordering contract: rows
// sort by descending total wait, ties broken by waiter then holder.
func TestPairsSortedByTotalWait(t *testing.T) {
	s, p, l, mon := setup()
	cpu := s.NewCPU("cpu", 8)
	// BestSellers holds 30ms; two distinct waiters arrive at different
	// points, giving different totals.
	spawnTxn(s, p, cpu, l, 0, "BestSellers", vclock.Exclusive, 30*vclock.Millisecond)
	spawnTxn(s, p, cpu, l, vclock.Time(5*vclock.Millisecond), "Home", vclock.Exclusive, vclock.Millisecond)
	spawnTxn(s, p, cpu, l, vclock.Time(20*vclock.Millisecond), "AdminConfirm", vclock.Exclusive, vclock.Millisecond)
	s.Run()
	s.Shutdown()

	pairs := mon.Pairs()
	if len(pairs) < 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Total > pairs[i-1].Total {
			t.Fatalf("pairs not sorted by descending total: %+v", pairs)
		}
	}
	if pairs[0].Waiter != "Home" {
		t.Fatalf("largest total should be Home's 25ms wait: %+v", pairs[0])
	}
}
