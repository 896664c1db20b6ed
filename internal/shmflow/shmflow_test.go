package shmflow

import (
	"testing"
	"unsafe"

	"whodunit/internal/vm"
)

// TestRecordWidths pins the sizes that the 32-bit ids buy: a location is
// 12 bytes, a flow 28 (the flow log holds one per detected flow, and a
// report a copy of it) and a dictionary entry 16 (a shadow page holds
// 512). A field widened back to int fails here first.
func TestRecordWidths(t *testing.T) {
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"vm.Loc", unsafe.Sizeof(vm.Loc{}), 12},
		{"FlowEvent", unsafe.Sizeof(FlowEvent{}), 28},
		{"entry", unsafe.Sizeof(entry{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.what, c.got, c.want)
		}
	}
}

// tracker is what the scenarios need of a §3 implementation; the
// production Tracker and the map-keyed oracle (ref_test.go) both have it.
type tracker interface {
	vm.Tracer
	Flows() []FlowEvent
	NonFlow(lock int32) bool
	Producers(lock int32) []int32
	Consumers(lock int32) []int32
}

// rig wires a machine in emulate mode to a tracker whose thread contexts
// are supplied by the ctxts map (thread id -> token). onFlow and
// onNonFlow, when set, receive the tracker's callbacks.
type rig struct {
	m         *vm.Machine
	tr        tracker
	ctxts     map[int32]Token
	onFlow    func(FlowEvent)
	onNonFlow func(lock int32)
}

// eachTracker runs a scenario once per implementation, as subtests, so
// every behaviour pinned here is pinned for both.
func eachTracker(t *testing.T, scenario func(t *testing.T, newRig func() *rig)) {
	t.Run("shadow", func(t *testing.T) { scenario(t, func() *rig { return newRig(false) }) })
	t.Run("ref", func(t *testing.T) { scenario(t, func() *rig { return newRig(true) }) })
}

// newTracker returns the production Tracker, or the oracle when ref is
// set, with its three hooks assigned.
func newTracker(ref bool, ctxt func(int32) Token, onFlow func(FlowEvent), onNonFlow func(int32)) tracker {
	if ref {
		tr := newRefTracker()
		tr.ThreadCtxt, tr.OnFlow, tr.OnNonFlow = ctxt, onFlow, onNonFlow
		return tr
	}
	tr := NewTracker()
	tr.ThreadCtxt, tr.OnFlow, tr.OnNonFlow = ctxt, onFlow, onNonFlow
	return tr
}

func newRig(ref bool) *rig {
	r := &rig{m: vm.NewMachine(), ctxts: make(map[int32]Token)}
	r.m.Mode = vm.ModeEmulateCS
	r.tr = newTracker(ref,
		func(tid int32) Token { return r.ctxts[tid] },
		func(ev FlowEvent) {
			if r.onFlow != nil {
				r.onFlow(ev)
			}
		},
		func(lock int32) {
			if r.onNonFlow != nil {
				r.onNonFlow(lock)
			}
		})
	r.m.Tracer = r.tr
	return r
}

func (r *rig) spawn(t *testing.T, p *vm.Program, label string, tok Token, regs map[byte]int64) *vm.Thread {
	t.Helper()
	th, err := r.m.Spawn(p, label)
	if err != nil {
		t.Fatal(err)
	}
	for reg, v := range regs {
		th.Regs[reg] = v
	}
	r.ctxts[th.ID] = tok
	return th
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestApacheQueueFlowDetected(t *testing.T) { eachTracker(t, testApacheQueueFlowDetected) }

func testApacheQueueFlowDetected(t *testing.T, newRig func() *rig) {
	// Figure 1 / §3.3.1: the listener's push and a worker's pop must yield
	// a flow from producer to consumer carrying the producer's context.
	r := newRig()
	prod := r.spawn(t, ApachePush, "push", 77, map[byte]int64{1: QueueBase, 4: 1234, 5: 5678})
	cons := r.spawn(t, ApachePop, "pop", 0, map[byte]int64{1: QueueBase, 9: 0x8000})
	r.run(t)

	flows := r.tr.Flows()
	if len(flows) == 0 {
		t.Fatal("no flow detected for Apache queue pattern")
	}
	for _, f := range flows {
		if f.Producer != prod.ID || f.Consumer != cons.ID || f.Token != 77 || f.Lock != QueueLock {
			t.Fatalf("unexpected flow %v", f)
		}
	}
	// The consumer must have obtained the actual values.
	if cons.Regs[4] != 1234 || cons.Regs[5] != 5678 {
		t.Fatalf("consumer regs = %d,%d want 1234,5678", cons.Regs[4], cons.Regs[5])
	}
	if r.tr.NonFlow(QueueLock) {
		t.Fatal("queue lock wrongly classified non-flow")
	}
}

func TestApacheQueueMultipleWorkers(t *testing.T) { eachTracker(t, testApacheQueueMultipleWorkers) }

func testApacheQueueMultipleWorkers(t *testing.T, newRig func() *rig) {
	// One listener pushes two connections; two workers each pop one.
	// Both workers must consume the listener's context.
	r := newRig()
	// Two sequential pushes by the same producer thread: run push, then
	// respawn with new values (the program halts after one push).
	prodA := r.spawn(t, ApachePush, "push", 7, map[byte]int64{1: QueueBase, 4: 11, 5: 12})
	r.run(t)
	prodB := r.spawn(t, ApachePush, "push", 7, map[byte]int64{1: QueueBase, 4: 21, 5: 22})
	r.run(t)
	w1 := r.spawn(t, ApachePop, "pop", 0, map[byte]int64{1: QueueBase, 9: 0x8000})
	w2 := r.spawn(t, ApachePop, "pop", 0, map[byte]int64{1: QueueBase, 9: 0x8100})
	r.run(t)

	consumers := map[int32]bool{}
	for _, f := range r.tr.Flows() {
		if f.Token != 7 {
			t.Fatalf("flow with wrong token: %v", f)
		}
		consumers[f.Consumer] = true
	}
	if !consumers[w1.ID] || !consumers[w2.ID] {
		t.Fatalf("both workers should consume, got %v", consumers)
	}
	_ = prodA
	_ = prodB
	// LIFO pop order: w1 gets the second push's values.
	if w1.Regs[4] != 21 || w2.Regs[4] != 11 {
		t.Fatalf("pop values: w1=%d w2=%d", w1.Regs[4], w2.Regs[4])
	}
}

func TestSharedCounterNoFlow(t *testing.T) { eachTracker(t, testSharedCounterNoFlow) }

func testSharedCounterNoFlow(t *testing.T, newRig func() *rig) {
	// Figure 2 / §3.4: a shared counter must produce no flow and no
	// producers — MySQL's shared counter validation (§8.1).
	r := newRig()
	r.spawn(t, SharedCounter, "main", 1, map[byte]int64{1: CounterAddr, 2: 50})
	r.spawn(t, SharedCounter, "main", 2, map[byte]int64{1: CounterAddr, 2: 50})
	r.run(t)

	if n := len(r.tr.Flows()); n != 0 {
		t.Fatalf("shared counter produced %d flows: %v", n, r.tr.Flows())
	}
	if p := r.tr.Producers(CounterLock); len(p) != 0 {
		t.Fatalf("counter lock has producers %v", p)
	}
	if r.m.Mem.Load(CounterAddr) != 100 {
		t.Fatalf("counter = %d, want 100", r.m.Mem.Load(CounterAddr))
	}
}

func TestAllocatorPatternClassifiedNonFlow(t *testing.T) {
	eachTracker(t, testAllocatorPatternClassifiedNonFlow)
}

func testAllocatorPatternClassifiedNonFlow(t *testing.T, newRig func() *rig) {
	// Figure 3 / §3.4: threads that both free (produce) and allocate
	// (consume) from the same free list mark the lock non-flow the first
	// time a thread appears in both sets.
	r := newRig()
	var demoted []int32
	r.onNonFlow = func(lock int32) { demoted = append(demoted, lock) }

	r.spawn(t, AllocWork, "main", 5, map[byte]int64{2: FreeHead, 4: 0x3100, 9: 0x8000})
	r.spawn(t, AllocWork, "main", 6, map[byte]int64{2: FreeHead, 4: 0x3200, 9: 0x8100})
	r.run(t)

	if !r.tr.NonFlow(AllocLock) {
		t.Fatalf("allocator lock not classified non-flow; producers=%v consumers=%v",
			r.tr.Producers(AllocLock), r.tr.Consumers(AllocLock))
	}
	if len(demoted) != 1 || demoted[0] != AllocLock {
		t.Fatalf("OnNonFlow calls = %v, want exactly [3]", demoted)
	}
}

func TestAllocatorSameThreadRoundTripIsNotFlow(t *testing.T) {
	eachTracker(t, testAllocatorSameThreadRoundTripIsNotFlow)
}

func testAllocatorSameThreadRoundTripIsNotFlow(t *testing.T, newRig func() *rig) {
	// A single thread freeing and then allocating the same block must not
	// emit a flow event (producer == consumer).
	r := newRig()
	free, err := r.m.Spawn(MemFree, "free")
	if err != nil {
		t.Fatal(err)
	}
	free.Regs[2], free.Regs[4] = FreeHead, 0x3100
	r.ctxts[free.ID] = 9
	r.run(t)
	// Same machine thread id cannot be reused after halt; emulate "same
	// thread" by giving the alloc thread the same id in the tracker's
	// producer set: instead verify no flow is emitted for a same-context
	// round trip where producer thread consumes its own produce via a
	// fresh CS in one program.
	combined := vm.MustAssemble("free_then_alloc", `
	main:
		lock 3
		load  r3, [r2]
		store [r4], r3
		store [r2], r4      ; free: head = block (produce)
		unlock 3
		nop
		lock 3
		load  r4, [r2]      ; alloc: r4 = head (context-carrying)
		load  r3, [r4]
		store [r2], r3
		unlock 3
		store [r9], r4      ; use block: consume by the SAME thread
		halt
	`)
	th, err := r.m.Spawn(combined, "main")
	if err != nil {
		t.Fatal(err)
	}
	th.Regs[2], th.Regs[4], th.Regs[9] = FreeHead, 0x3200, 0x8000
	r.ctxts[th.ID] = 10
	r.run(t)

	for _, f := range r.tr.Flows() {
		if f.Producer == f.Consumer {
			t.Fatalf("self-flow emitted: %v", f)
		}
	}
	if !r.tr.NonFlow(AllocLock) {
		t.Fatal("free-then-alloc by one thread should classify the allocator lock non-flow")
	}
}

func TestLinkedListFlow(t *testing.T) { eachTracker(t, testLinkedListFlow) }

func testLinkedListFlow(t *testing.T, newRig func() *rig) {
	// §3.3.2: sys/queue.h-style list. Producer pushes an element; consumer
	// pops it and uses the payload.
	r := newRig()
	r.spawn(t, ListPush, "push", 42, map[byte]int64{1: ListHead, 4: 999, 8: 0x4100})
	r.run(t)
	cons := r.spawn(t, ListPop, "pop", 0, map[byte]int64{1: ListHead, 9: 0x8000})
	r.run(t)

	found := false
	for _, f := range r.tr.Flows() {
		if f.Consumer == cons.ID && f.Token == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no flow to list consumer; flows=%v", r.tr.Flows())
	}
	if cons.Regs[4] != 999 {
		t.Fatalf("payload = %d, want 999", cons.Regs[4])
	}
}

func TestEmptyListNullIsNotFlow(t *testing.T) { eachTracker(t, testEmptyListNullIsNotFlow) }

func testEmptyListNullIsNotFlow(t *testing.T, newRig func() *rig) {
	// §3.3.2: producer initialises next=NULL (immediate). First consumer
	// pops the element (real flow); second consumer finds head==NULL and
	// must NOT be inferred as consuming from the first consumer.
	r := newRig()
	r.spawn(t, ListPushNullInit, "push", 42, map[byte]int64{1: ListHead, 4: 999, 8: 0x4100})
	r.run(t)
	c1 := r.spawn(t, ListPop, "pop", 0, map[byte]int64{1: ListHead, 9: 0x8000})
	r.run(t)
	c2 := r.spawn(t, ListPop, "pop", 0, map[byte]int64{1: ListHead, 9: 0x8100})
	r.run(t)

	for _, f := range r.tr.Flows() {
		if f.Consumer == c2.ID {
			t.Fatalf("empty-list pop wrongly inferred flow: %v", f)
		}
	}
	ok := false
	for _, f := range r.tr.Flows() {
		if f.Consumer == c1.ID && f.Token == 42 {
			ok = true
		}
	}
	if !ok {
		t.Fatal("real flow to first consumer missing")
	}
}

func TestQueueElementMovePreservesContext(t *testing.T) {
	eachTracker(t, testQueueElementMovePreservesContext)
}

func testQueueElementMovePreservesContext(t *testing.T, newRig func() *rig) {
	// §3.2: moving a produced element to a new location inside a critical
	// section must carry the original producer's context to the new
	// location; the eventual consumer sees the original context.
	r := newRig()
	r.spawn(t, ApachePush, "push", 31, map[byte]int64{1: QueueBase, 4: 1, 5: 2})
	r.run(t)
	// Move slot 0 (0x1010) to slot 3 (0x1016) — a different thread does
	// the reshuffle, as in a priority queue.
	r.spawn(t, QueueMove, "move", 99, map[byte]int64{1: QueueBase, 6: QueueData, 7: QueueData + 6})
	r.run(t)
	// Consumer reads slot 3 directly.
	direct := vm.MustAssemble("consume_slot3", `
	main:
		lock 1
		load r4, [r7+0]
		load r5, [r7+1]
		unlock 1
		store [r9], r4
		halt
	`)
	cons, err := r.m.Spawn(direct, "main")
	if err != nil {
		t.Fatal(err)
	}
	cons.Regs[7], cons.Regs[9] = QueueData+6, 0x8000
	r.ctxts[cons.ID] = 0
	r.run(t)

	var toks []Token
	for _, f := range r.tr.Flows() {
		if f.Consumer == cons.ID {
			toks = append(toks, f.Token)
		}
	}
	if len(toks) == 0 || toks[0] != 31 {
		t.Fatalf("consumer should get original producer token 31, flows=%v", r.tr.Flows())
	}
}

func TestLockMismatchFlushes(t *testing.T) { eachTracker(t, testLockMismatchFlushes) }

func testLockMismatchFlushes(t *testing.T, newRig func() *rig) {
	// §3.2: an address last tagged under lock 1 accessed from a critical
	// section under lock 5 is flushed; no flow may be inferred.
	r := newRig()
	r.spawn(t, ApachePush, "push", 13, map[byte]int64{1: QueueBase, 4: 5, 5: 6})
	r.run(t)
	cons := r.spawn(t, CrossLockRead, "read", 0, map[byte]int64{7: QueueData, 9: 0x8000})
	r.run(t)
	for _, f := range r.tr.Flows() {
		if f.Consumer == cons.ID {
			t.Fatalf("cross-lock read wrongly inferred flow: %v", f)
		}
	}
}

func TestConsumeWindowBounds(t *testing.T) { eachTracker(t, testConsumeWindowBounds) }

func testConsumeWindowBounds(t *testing.T, newRig func() *rig) {
	// §7.2: the consume must happen within MAX instructions of the exit.
	// A consumer that waits past the window is not detected.
	mkSrc := func(pad int) string {
		src := "main:\n lock 1\n load r4, [r7+0]\n unlock 1\n"
		for i := 0; i < pad; i++ {
			src += " nop\n"
		}
		src += " store [r9], r4\n halt\n"
		return src
	}
	for _, tc := range []struct {
		pad  int
		want bool
	}{
		{0, true},
		{vm.DefaultMaxWindow - 2, true},
		{vm.DefaultMaxWindow + 2, false},
	} {
		r := newRig()
		r.spawn(t, ApachePush, "push", 55, map[byte]int64{1: QueueBase, 4: 1, 5: 2})
		r.run(t)
		cons, err := r.m.Spawn(vm.MustAssemble("late", mkSrc(tc.pad)), "main")
		if err != nil {
			t.Fatal(err)
		}
		cons.Regs[7], cons.Regs[9] = QueueData, 0x8000
		r.ctxts[cons.ID] = 0
		r.run(t)
		got := false
		for _, f := range r.tr.Flows() {
			if f.Consumer == cons.ID {
				got = true
			}
		}
		if got != tc.want {
			t.Fatalf("pad=%d: flow detected=%v, want %v", tc.pad, got, tc.want)
		}
	}
}

func TestOnFlowCallbackFires(t *testing.T) { eachTracker(t, testOnFlowCallbackFires) }

func testOnFlowCallbackFires(t *testing.T, newRig func() *rig) {
	r := newRig()
	var events []FlowEvent
	r.onFlow = func(ev FlowEvent) { events = append(events, ev) }
	r.spawn(t, ApachePush, "push", 3, map[byte]int64{1: QueueBase, 4: 1, 5: 2})
	r.spawn(t, ApachePop, "pop", 0, map[byte]int64{1: QueueBase, 9: 0x8000})
	r.run(t)
	if len(events) == 0 {
		t.Fatal("OnFlow callback never fired")
	}
	if events[0].Token != 3 {
		t.Fatalf("callback token = %d", events[0].Token)
	}
}

func TestNonFlowDemotionStopsEmulation(t *testing.T) {
	eachTracker(t, testNonFlowDemotionStopsEmulation)
}

func testNonFlowDemotionStopsEmulation(t *testing.T, newRig func() *rig) {
	// Wire OnNonFlow to Machine.SetNonFlow as the implementation does
	// (§7.2) and verify subsequent critical sections run native (cheap).
	r := newRig()
	r.onNonFlow = func(lock int32) { r.m.SetNonFlow(lock) }

	r.spawn(t, AllocWork, "main", 1, map[byte]int64{2: FreeHead, 4: 0x3100, 9: 0x8000})
	r.run(t)
	if !r.m.NonFlow(AllocLock) {
		t.Fatal("machine never told to run allocator natively")
	}
	// A fresh free on the demoted lock must cost native cycles.
	t5 := r.spawn(t, MemFree, "free", 3, map[byte]int64{2: FreeHead, 4: 0x3300})
	r.run(t)
	native := vm.NewMachine()
	nt, _ := native.Spawn(MemFree, "free")
	nt.Regs[2], nt.Regs[4] = FreeHead, 0x3300
	native.Run(1000)
	if t5.Cycles != nt.Cycles {
		t.Fatalf("demoted CS cycles %d != native %d", t5.Cycles, nt.Cycles)
	}
}

func TestFlowEventString(t *testing.T) {
	ev := FlowEvent{Producer: 1, Consumer: 2, Token: 9, Lock: 1, Loc: vm.MemLoc(0x10)}
	if ev.String() == "" {
		t.Fatal("empty event string")
	}
}
