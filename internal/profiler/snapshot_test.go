package profiler

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// workload drives a probe through three contexts and two call paths —
// enough structure to exercise every presentation method.
func workload(pr *Probe) {
	root := pr.Profiler().Table.Root()
	defer pr.Exit(pr.Enter("serve"))
	pr.SetTxn(TxnCtxt{Local: root.Append(tranctx.HandlerHop("s", "home"))})
	func() {
		defer pr.Exit(pr.Enter("render"))
		pr.Compute(5 * DefaultInterval)
	}()
	pr.SetTxn(TxnCtxt{Local: root.Append(tranctx.HandlerHop("s", "search"))})
	func() {
		defer pr.Exit(pr.Enter("query"))
		pr.Compute(9 * DefaultInterval)
	}()
	pr.SetTxn(TxnCtxt{Prefix: tranctx.Chain{42}, Local: root})
	pr.Compute(2 * DefaultInterval)
}

// TestSnapshotPresentationParity checks a Snapshot answers every
// presentation question exactly as the live Profiler it was copied from.
func TestSnapshotPresentationParity(t *testing.T) {
	for _, ctor := range []struct {
		name string
		take func(p *Profiler) *Snapshot
	}{
		{"View", func(p *Profiler) *Snapshot { return p.View() }},
		{"Snapshot", func(p *Profiler) *Snapshot { return p.Snapshot() }},
		{"Retire", func(p *Profiler) *Snapshot { return p.Retire() }},
	} {
		t.Run(ctor.name, func(t *testing.T) {
			p := harness(t, ModeWhodunit, workload)
			wantShares := p.Shares()
			wantMergedTotal := p.Merged().Total()
			wantSamples, wantCalls, wantSwitches, wantOverhead := p.Stats()
			wantEntries := len(p.Entries())
			wantLabels := make([]string, 0, wantEntries)
			for _, e := range p.Entries() {
				wantLabels = append(wantLabels, e.Tree.Label)
			}

			s := ctor.take(p)
			if got := s.Shares(); !reflect.DeepEqual(got, wantShares) {
				t.Fatalf("Shares: %+v, want %+v", got, wantShares)
			}
			if got := s.Merged().Total(); got != wantMergedTotal {
				t.Fatalf("Merged total %d, want %d", got, wantMergedTotal)
			}
			samples, calls, switches, overhead := s.Stats()
			if samples != wantSamples || calls != wantCalls || switches != wantSwitches || overhead != wantOverhead {
				t.Fatalf("Stats (%d,%d,%d,%v), want (%d,%d,%d,%v)",
					samples, calls, switches, overhead, wantSamples, wantCalls, wantSwitches, wantOverhead)
			}
			if s.TotalSamples() != wantSamples {
				t.Fatalf("TotalSamples %d, want %d", s.TotalSamples(), wantSamples)
			}
			if got := len(s.Entries()); got != wantEntries {
				t.Fatalf("Entries %d, want %d", got, wantEntries)
			}
			for i, e := range s.Entries() {
				if e.Tree.Label != wantLabels[i] {
					t.Fatalf("tree %d label %q, want %q", i, e.Tree.Label, wantLabels[i])
				}
			}
			// The search context dominates: its query path must survive the
			// copy with exact counts.
			top := s.Shares()[0]
			if top.Samples != 9 {
				t.Fatalf("top share %+v, want 9 samples", top)
			}
			i := slices.IndexFunc(s.Entries(), func(e TreeEntry) bool { return e.Tree.Label == top.Label })
			if n, ok := s.Entries()[i].Tree.Find("serve", "query"); !ok || n.Self != 9 {
				t.Fatalf("query node %+v, want self 9", n)
			}
		})
	}
}

// TestRetireResetsLiveState: after Retire the live profiler starts an
// empty window — counters zeroed, tree set fresh, probes re-resolving
// their cached tree — while the snapshot keeps the full history.
func TestRetireResetsLiveState(t *testing.T) {
	var snap *Snapshot
	p := harness(t, ModeWhodunit, func(pr *Probe) {
		defer pr.Exit(pr.Enter("f"))
		pr.Compute(4 * DefaultInterval)
		snap = pr.Profiler().Retire()
		pr.Compute(6 * DefaultInterval)
	})
	if snap.TotalSamples() != 4 {
		t.Fatalf("retired window has %d samples, want 4", snap.TotalSamples())
	}
	if p.TotalSamples() != 6 {
		t.Fatalf("live profiler has %d samples after retire, want 6", p.TotalSamples())
	}
	// The post-retire samples must land in a fresh tree, not the
	// retired one.
	if n, _ := snap.Merged().Find("f"); n.Self != 4 {
		t.Fatalf("retired f self %d, want 4 (post-retire samples leaked in)", n.Self)
	}
	if n, _ := p.Merged().Find("f"); n.Self != 6 {
		t.Fatalf("live f self %d, want 6", n.Self)
	}
}

// TestRetiredWindowsSumToUnwindowedRun: splitting a run into retired
// windows conserves samples — the windows plus the live residue sum to
// exactly what one unwindowed run of the same body accumulates.
func TestRetiredWindowsSumToUnwindowedRun(t *testing.T) {
	whole := harness(t, ModeWhodunit, workload)

	var windows []*Snapshot
	split := harness(t, ModeWhodunit, func(pr *Probe) {
		root := pr.Profiler().Table.Root()
		defer pr.Exit(pr.Enter("serve"))
		pr.SetTxn(TxnCtxt{Local: root.Append(tranctx.HandlerHop("s", "home"))})
		func() {
			defer pr.Exit(pr.Enter("render"))
			pr.Compute(5 * DefaultInterval)
		}()
		windows = append(windows, pr.Profiler().Retire())
		pr.SetTxn(TxnCtxt{Local: root.Append(tranctx.HandlerHop("s", "search"))})
		func() {
			defer pr.Exit(pr.Enter("query"))
			pr.Compute(9 * DefaultInterval)
		}()
		windows = append(windows, pr.Profiler().Retire())
		pr.SetTxn(TxnCtxt{Prefix: tranctx.Chain{42}, Local: root})
		pr.Compute(2 * DefaultInterval)
	})

	var sum int64
	for _, w := range windows {
		sum += w.TotalSamples()
	}
	sum += split.TotalSamples()
	if sum != whole.TotalSamples() {
		t.Fatalf("windows+residue = %d samples, unwindowed run = %d", sum, whole.TotalSamples())
	}
	// Per-context conservation: merge every window's share map and
	// compare against the whole run's.
	got := map[string]int64{}
	for _, w := range windows {
		for _, sh := range w.Shares() {
			got[sh.Label] += sh.Samples
		}
	}
	for _, sh := range split.Shares() {
		got[sh.Label] += sh.Samples
	}
	want := map[string]int64{}
	for _, sh := range whole.Shares() {
		want[sh.Label] += sh.Samples
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-context samples %v, want %v", got, want)
	}
}

// TestSnapshotDetachedFromLiveProfiler: a Snapshot taken mid-run is
// immutable — samples accumulated afterwards never show through, and
// its private frame table keeps resolving names even as the live table
// grows.
func TestSnapshotDetachedFromLiveProfiler(t *testing.T) {
	var snap *Snapshot
	harness(t, ModeWhodunit, func(pr *Probe) {
		defer pr.Exit(pr.Enter("f"))
		pr.Compute(3 * DefaultInterval)
		snap = pr.Profiler().Snapshot()
		defer pr.Exit(pr.Enter("g"))
		pr.Compute(8 * DefaultInterval)
	})
	if snap.TotalSamples() != 3 {
		t.Fatalf("snapshot has %d samples, want the 3 taken before it", snap.TotalSamples())
	}
	m := snap.Merged()
	if n, ok := m.Find("f"); !ok || n.Self != 3 {
		t.Fatalf("snapshot f = %+v, want self 3", n)
	}
	if _, ok := m.Find("g"); ok {
		t.Fatal("frame entered after the snapshot leaked into it")
	}
}

// TestSnapshotWhileRunning is the -race witness for the live /report
// path: detached snapshots are taken at event boundaries while the
// simulation keeps running, and a separate goroutine walks every
// presentation method concurrently with further sampling.
func TestSnapshotWhileRunning(t *testing.T) {
	s := vclock.New()
	cpu := s.NewCPU("cpu", 1)
	p := New("stage", ModeWhodunit)

	snaps := make(chan *Snapshot, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for snap := range snaps {
			for _, sh := range snap.Shares() {
				if sh.Samples < 0 {
					t.Errorf("negative share %+v", sh)
				}
			}
			snap.Merged()
			snap.Stats()
			for _, e := range snap.Entries() {
				e.Tree.Find("serve")
			}
		}
	}()

	done := false
	s.Go("worker", func(th *vclock.Thread) {
		pr := p.NewProbe(th, cpu)
		root := p.Table.Root()
		defer pr.Exit(pr.Enter("serve"))
		for i := 0; i < 400; i++ {
			pr.SetTxn(TxnCtxt{Local: root.Append(tranctx.HandlerHop("s", []string{"a", "b", "c"}[i%3]))})
			pr.Compute(DefaultInterval)
		}
		done = true
	})
	// Scheduler context: snapshot every few sample intervals while the
	// worker is mid-loop. Non-blocking send — a slow reader drops
	// snapshots, never stalls the simulation.
	s.Every(3*DefaultInterval, func() {
		select {
		case snaps <- p.Snapshot():
		default:
		}
	})
	// The ticker reschedules forever, so run under a stop predicate
	// rather than to event exhaustion.
	s.RunUntil(func() bool { return done })
	s.Shutdown()
	close(snaps)
	wg.Wait()
}
