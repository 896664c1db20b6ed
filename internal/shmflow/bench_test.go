package shmflow

import (
	"fmt"
	"testing"

	"whodunit/internal/vm"
)

// tripRig runs Figure 1's queue the way an application host does: every
// push and every pop is a fresh one-shot vm thread that is run to its
// halt, released from the tracker and reaped from the machine.
type tripRig struct {
	m  *vm.Machine
	tr *Tracker
}

// newTripRig attaches the tracker to the machine, or — traced false — a
// tracer that does nothing, leaving the machine's own cost.
func newTripRig(traced bool) *tripRig {
	r := &tripRig{m: vm.NewMachine(), tr: NewTracker()}
	r.m.Mode = vm.ModeEmulateCS
	r.tr.ThreadCtxt = func(int32) Token { return 7 }
	r.m.Tracer = nopTracer{}
	if traced {
		r.m.Tracer = r.tr
	}
	return r
}

func (r *tripRig) exec(p *vm.Program, label string, r1, r4, r5, r9 int64) {
	th, err := r.m.Spawn(p, label)
	if err != nil {
		panic(err)
	}
	th.Regs[1], th.Regs[4], th.Regs[5], th.Regs[9] = r1, r4, r5, r9
	if err := r.m.Run(1000); err != nil {
		panic(err)
	}
	r.tr.Release(th.ID)
	r.m.Reap()
}

// roundTrip is one push critical section and one pop critical section:
// two executions, two flow events (sd and p), queue empty again after.
func (r *tripRig) roundTrip() {
	r.exec(ApachePush, "push", QueueBase, 1234, 5678, 0)
	r.exec(ApachePop, "pop", QueueBase, 0, 0, 0x8000)
}

// BenchmarkTrackerRoundTrip measures machine plus tracker on the queue
// round trip, after a short and after a long history of executions: the
// dictionary holds nothing of a released thread, so the two read alike.
// (What still grows with history is outside the dictionary: the flow log
// and the lock's producer and consumer sets, one thread id per
// execution.)
func BenchmarkTrackerRoundTrip(b *testing.B) {
	for _, prior := range []int{1_000, 1_000_000} {
		var r *tripRig // built on the sub-benchmark's first pass, kept for its longer ones
		b.Run(fmt.Sprintf("after=%d", prior), func(b *testing.B) {
			b.ReportAllocs()
			if r == nil {
				r = newTripRig(true)
				for i := 0; i < prior/2; i++ {
					r.roundTrip()
				}
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				r.roundTrip()
			}
			if n := r.tr.DictSize(); n > 8 {
				b.Fatalf("dictionary holds %d entries after %d executions", n, prior+2*b.N)
			}
		})
	}
}

type nopTracer struct{}

func (nopTracer) OnAccess(vm.Access) {}
func (nopTracer) OnLock(int, int)    {}
func (nopTracer) OnUnlock(int, int)  {}

// TestTrackerSteadyStateZeroAllocs pins the tracker's share of a round
// trip at zero allocations once the translation cache, the shadow page
// and the register-file pool are warm. The machine's own per-execution
// cost — Spawn allocates the Thread and its held-lock stack — is read off
// an identical rig whose tracer does nothing, and the live tracker must
// add nothing to it; the flow log's amortised growth (two 48-byte events
// per trip) is below AllocsPerRun's whole-number resolution.
func TestTrackerSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	live, bare := newTripRig(true), newTripRig(false)
	for i := 0; i < 64; i++ {
		live.roundTrip()
		bare.roundTrip()
	}
	machine := testing.AllocsPerRun(500, bare.roundTrip)
	total := testing.AllocsPerRun(500, live.roundTrip)
	if total != machine {
		t.Fatalf("%v allocs per round trip with the tracker, %v without: the tracker allocates %v", total, machine, total-machine)
	}
	st := live.tr.Stats()
	if st.Flows == 0 || st.RegFilesLive != 0 || st.RegFilesPooled != 1 {
		t.Fatalf("round trips did not exercise flows and the pool: %+v", st)
	}
}
