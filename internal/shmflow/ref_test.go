package shmflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"whodunit/internal/vm"
)

// This file keeps the tracker exactly as it was before the shadow-state
// dictionary — one map[vm.Loc] holding every association, sixteen deletes
// per critical-section entry, no notion of a thread's registers ever
// going away — and differentially checks the production Tracker against
// it on generated multi-thread programs: same flow events, same
// producer/consumer sets and non-flow verdicts, same callback sequence,
// same live-entry count. The scenario tests (shmflow_test.go,
// tailq_test.go) run against it too, as the "ref" row of eachTracker.

// --- reference implementation ---------------------------------------

// refEntry is a dictionary entry: the context associated with a location.
// valid=false is the paper's invlctxt.
type refEntry struct {
	tok      Token
	valid    bool
	lock     int32
	producer int32
}

// refLockInfo is the oracle's own per-lock thread sets: plain maps, so it
// shares nothing with the bit sets it is compared against.
type refLockInfo struct {
	producers map[int32]bool
	consumers map[int32]bool
	nonFlow   bool
}

// refTracker implements vm.Tracer and runs the §3 algorithm on one
// map[vm.Loc] dictionary.
type refTracker struct {
	// ThreadCtxt supplies the executing thread's current transaction
	// context token; required.
	ThreadCtxt func(thread int32) Token
	// OnFlow, if set, is invoked for every detected flow (after the
	// consumer set updates). This is where the profiler propagates the
	// context to the consuming thread (§3.5).
	OnFlow func(ev FlowEvent)
	// OnNonFlow, if set, is invoked once per lock when its accesses are
	// classified as not constituting transaction flow; the application
	// typically responds with Machine.SetNonFlow to drop to native
	// execution (§7.2).
	OnNonFlow func(lock int32)

	dict  map[vm.Loc]refEntry
	locks map[int32]*refLockInfo
	flows []FlowEvent
}

var _ vm.Tracer = (*refTracker)(nil)

// newRefTracker returns a reference tracker with an empty dictionary.
// ThreadCtxt must be assigned before use.
func newRefTracker() *refTracker {
	return &refTracker{
		dict:  make(map[vm.Loc]refEntry),
		locks: make(map[int32]*refLockInfo),
	}
}

// Flows returns every detected flow event in order.
func (tr *refTracker) Flows() []FlowEvent { return tr.flows }

// NonFlow reports whether lock has been classified non-flow.
func (tr *refTracker) NonFlow(lock int32) bool {
	li := tr.locks[lock]
	return li != nil && li.nonFlow
}

// Producers returns the sorted producer thread ids recorded for lock.
func (tr *refTracker) Producers(lock int32) []int32 { return tr.side(lock, true) }

// Consumers returns the sorted consumer thread ids recorded for lock.
func (tr *refTracker) Consumers(lock int32) []int32 { return tr.side(lock, false) }

func (tr *refTracker) side(lock int32, prod bool) []int32 {
	li := tr.locks[lock]
	if li == nil {
		return nil
	}
	set := li.consumers
	if prod {
		set = li.producers
	}
	out := make([]int32, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// DictSize reports the number of live dictionary entries (for tests and
// capacity monitoring).
func (tr *refTracker) DictSize() int { return len(tr.dict) }

func (tr *refTracker) lockInfoFor(lock int32) *refLockInfo {
	li, ok := tr.locks[lock]
	if !ok {
		li = &refLockInfo{producers: make(map[int32]bool), consumers: make(map[int32]bool)}
		tr.locks[lock] = li
	}
	return li
}

// OnLock implements vm.Tracer: entering the outermost critical section.
// The thread's register entries are flushed — registers were freely
// overwritten outside the traced region, so any old association is stale.
// This realises the §3.2 premise that a producer's source locations have
// no associated context on critical-section entry.
func (tr *refTracker) OnLock(thread, lock int) {
	for r := byte(0); r < vm.NumRegs; r++ {
		delete(tr.dict, vm.RegLoc(int32(thread), r))
	}
}

// OnUnlock implements vm.Tracer. The consume window is handled by the
// machine; nothing to do here.
func (tr *refTracker) OnUnlock(thread, lock int) {}

// OnAccess implements vm.Tracer: the per-instruction algorithm.
func (tr *refTracker) OnAccess(ac vm.Access) {
	if ac.InCS {
		tr.inCS(ac)
		return
	}
	if ac.InWindow {
		tr.inWindow(ac)
	}
}

// flushMismatched drops loc's entry if it was last set under a different
// lock (§3.2: a location may serve different purposes at different times).
func (tr *refTracker) flushMismatched(loc vm.Loc, lock int32) {
	if e, ok := tr.dict[loc]; ok && e.lock != lock {
		delete(tr.dict, loc)
	}
}

func (tr *refTracker) inCS(ac vm.Access) {
	switch ac.Kind {
	case vm.AccMove:
		tr.flushMismatched(ac.Src, ac.Lock)
		tr.flushMismatched(ac.Dst, ac.Lock)
		if e, ok := tr.dict[ac.Src]; ok {
			// Propagate, valid or invalid (§3.3.2: the NULL/invalid
			// context is transferred just like a valid one).
			e.lock = ac.Lock
			tr.dict[ac.Dst] = e
			return
		}
		// Source has no associated context: associate the executing
		// thread's context with the destination. A memory destination is
		// a produce (§3.2).
		tok := Token(0)
		if tr.ThreadCtxt != nil {
			tok = tr.ThreadCtxt(ac.Thread)
		}
		tr.dict[ac.Dst] = refEntry{tok: tok, valid: true, lock: ac.Lock, producer: ac.Thread}
		if ac.Dst.Kind == vm.LocMem {
			tr.addProducer(ac.Lock, ac.Thread)
		}
	case vm.AccWrite:
		tr.flushMismatched(ac.Dst, ac.Lock)
		// Non-MOV modification: invalid context (§3.2).
		tr.dict[ac.Dst] = refEntry{valid: false, lock: ac.Lock}
	case vm.AccRead:
		// Reads inside the critical section carry no inference; consumes
		// are detected after exit (§3.2's consumer definition).
	}
}

func (tr *refTracker) inWindow(ac vm.Access) {
	// Uses of context-carrying locations after critical-section exit are
	// consumes (§3.2, §7.2).
	for _, loc := range ac.Reads {
		e, ok := tr.dict[loc]
		if !ok || !e.valid {
			continue
		}
		// The value has been consumed; drop the association so repeated
		// uses in the same window do not re-fire.
		delete(tr.dict, loc)
		li := tr.addConsumer(e.lock, ac.Thread)
		if li.nonFlow {
			continue
		}
		if e.producer == ac.Thread {
			// A thread picking up its own context is not a transaction
			// flow (it contributes to the allocator-pattern sets above,
			// but assigning a thread its own context is a no-op).
			continue
		}
		ev := FlowEvent{Producer: e.producer, Consumer: ac.Thread, Token: e.tok, Lock: e.lock, Loc: loc}
		tr.flows = append(tr.flows, ev)
		if tr.OnFlow != nil {
			tr.OnFlow(ev)
		}
	}
	// Writes outside the critical section are untracked computation;
	// whatever the instruction stores there is not a traced value, so any
	// stale association must be dropped.
	if ac.Kind == vm.AccMove || ac.Kind == vm.AccWrite {
		delete(tr.dict, ac.Dst)
	}
}

// addProducer and addConsumer grow a lock's thread sets and apply §3.4's
// allocator rule incrementally: the producer/consumer intersection first
// becomes non-empty exactly when a thread newly added to one set is
// already in the other, so membership of the new thread is the only
// check needed — the full rescan this replaces was O(producers) per
// traced instruction, quadratic over an app's lifetime of one-shot
// critical-section executions.
func (tr *refTracker) addProducer(lock, thread int32) {
	li := tr.lockInfoFor(lock)
	if li.producers[thread] {
		return
	}
	li.producers[thread] = true
	if !li.nonFlow && li.consumers[thread] {
		tr.markNonFlow(lock, li)
	}
}

func (tr *refTracker) addConsumer(lock, thread int32) *refLockInfo {
	li := tr.lockInfoFor(lock)
	if !li.consumers[thread] {
		li.consumers[thread] = true
		if !li.nonFlow && li.producers[thread] {
			tr.markNonFlow(lock, li)
		}
	}
	return li
}

func (tr *refTracker) markNonFlow(lock int32, li *refLockInfo) {
	li.nonFlow = true
	if tr.OnNonFlow != nil {
		tr.OnNonFlow(lock)
	}
}

// --- differential test ------------------------------------------------

// Generated programs address three regions through r1..r3 — two
// neighbouring shadow pages and one past the paged directory, on the
// spill map — with small offsets, so threads collide on words, and take
// their locks from a set whose last member lies past the machine's dense
// lock table. diffWindow replaces MAX so that windows expire inside the
// short tails the generator emits.
var (
	diffBases = [3]int64{0x1000, 0x1200, 1<<25 + 0x40}
	diffLocks = []int64{1, 2, 3, 1 << 17}
)

const diffWindow = 8

// genProgram emits a branch-forward-only program: lock and unlock pairs
// nested up to two deep and released in any order, MOVs, immediates and
// arithmetic on the shared words inside and outside them, and an unlocked
// tail that is sometimes longer than the window. Locks are acquired in
// increasing id order, so no set of generated threads can deadlock. One
// program in three only produces (nothing executes outside its locks, so
// it has no window to consume in) and one in three only consumes (no
// store under a lock), so that not every lock ends up demoted by the
// allocator rule before a flow crosses it.
func genProgram(rng *rand.Rand, name string) *vm.Program {
	const (
		mixed = iota
		producer
		consumer
	)
	role := rng.Intn(3)
	var code []vm.Instr
	var held []int // indexes into diffLocks, ascending
	data := func() byte { return byte(4 + rng.Intn(6)) }
	plain := func() vm.Instr {
		base, off := byte(1+rng.Intn(3)), int64(rng.Intn(6))
		op := rng.Intn(12)
		if role == consumer && len(held) > 0 && op >= 3 && op <= 5 {
			op = 0
		}
		switch op {
		case 0, 1, 2:
			rd := data()
			if rng.Intn(8) == 0 {
				rd = 3 // a loaded pointer becomes a base: its use is a consume
			}
			return vm.Instr{Op: vm.LOAD, RD: rd, RS: base, Off: off}
		case 3, 4, 5:
			return vm.Instr{Op: vm.STORE, RD: base, RS: data(), Off: off}
		case 6:
			return vm.Instr{Op: vm.STOREI, RD: base, Off: off, Imm: int64(rng.Intn(3))}
		case 7:
			return vm.Instr{Op: vm.MOVRR, RD: data(), RS: data()}
		case 8:
			return vm.Instr{Op: vm.MOVI, RD: data(), Imm: int64(rng.Intn(100))}
		case 9:
			return vm.Instr{Op: vm.ADD, RD: data(), RS: data(), RT: data()}
		case 10:
			return vm.Instr{Op: vm.INCM, RD: base, Off: off}
		}
		return vm.Instr{Op: vm.NOP}
	}
	unlock := func(i int) {
		code = append(code, vm.Instr{Op: vm.UNLOCK, Imm: diffLocks[held[i]]})
		held = append(held[:i], held[i+1:]...)
	}
	for n := 8 + rng.Intn(40); len(code) < n; {
		next := 0
		if len(held) > 0 {
			next = held[len(held)-1] + 1
		}
		x := rng.Intn(12)
		if role == producer && len(held) == 0 {
			x = 0 // nothing runs in a producer's windows
		}
		switch {
		case x < 2 && len(held) < 2 && next < len(diffLocks):
			l := next + rng.Intn(len(diffLocks)-next)
			code = append(code, vm.Instr{Op: vm.LOCK, Imm: diffLocks[l]})
			held = append(held, l)
		case x < 4 && len(held) > 0:
			unlock(rng.Intn(len(held)))
		case x == 4:
			k := 1 + rng.Intn(3)
			op := vm.JEQ
			if rng.Intn(2) == 0 {
				op = vm.JNE
			}
			code = append(code, vm.Instr{Op: op, RS: data(), Imm: int64(rng.Intn(3)), Target: len(code) + 1 + k})
			for ; k > 0; k-- {
				code = append(code, plain())
			}
		default:
			code = append(code, plain())
		}
	}
	for len(held) > 0 {
		unlock(len(held) - 1)
	}
	if role != producer {
		for k := rng.Intn(2 * diffWindow); k > 0; k-- {
			code = append(code, plain())
		}
	}
	code = append(code, vm.Instr{Op: vm.HALT})
	return &vm.Program{Name: name, Code: code, Labels: map[string]int{"main": 0}}
}

// diffSide is one machine with one tracker implementation attached.
type diffSide struct {
	m     *vm.Machine
	tr    tracker
	calls []string // OnFlow / OnNonFlow invocations, in order
}

func newDiffSide(ref bool) *diffSide {
	s := &diffSide{m: vm.NewMachine()}
	s.m.Mode = vm.ModeEmulateCS
	s.m.MaxWindow = diffWindow
	s.tr = newTracker(ref,
		func(tid int32) Token { return Token(tid % 5) }, // token 0 and shared tokens included
		func(ev FlowEvent) { s.calls = append(s.calls, ev.String()) },
		func(lock int32) {
			s.calls = append(s.calls, fmt.Sprintf("nonflow %d", lock))
			s.m.SetNonFlow(lock) // feed back, so a wrong verdict changes what is traced next
		})
	s.m.Tracer = s.tr
	return s
}

// diffCoverage sums, over every generated case, the behaviours the test
// exists to exercise; TestTrackerDifferential fails if any stayed at zero.
type diffCoverage struct {
	flows, nonFlows, lockFlushes, consumes, spilled, releasedBesideLive int64
}

// diffCase runs one generated case on both sides in lockstep and reports
// the first disagreement.
func diffCase(seed int64, cov *diffCoverage) error {
	rng := rand.New(rand.NewSource(seed))
	progs := make([]*vm.Program, 2+rng.Intn(3))
	for i := range progs {
		progs[i] = genProgram(rng, fmt.Sprintf("gen%d", i))
	}
	shadow, ref := newDiffSide(false), newDiffSide(true)
	sides := [2]*diffSide{shadow, ref}
	var threads [2][]*vm.Thread
	released := make(map[int32]bool)

	spawn := func() {
		var regs [vm.NumRegs]int64
		copy(regs[1:], diffBases[:])
		for r := 4; r < 10; r++ {
			regs[r] = diffBases[rng.Intn(3)] + int64(rng.Intn(6)) // pointer-like data
		}
		p := progs[rng.Intn(len(progs))]
		for i, s := range sides {
			th, err := s.m.Spawn(p, "main")
			if err != nil {
				panic(err)
			}
			th.Regs = regs
			threads[i] = append(threads[i], th)
		}
	}
	// release retires every halted thread on both sides: the shadow
	// tracker drops its register file, the oracle keeps its entries and
	// compare discounts them.
	release := func() error {
		live := 0
		for _, th := range threads[0] {
			if !th.Halted() {
				live++
			}
		}
		for i, th := range threads[0] {
			if th.Halted() != threads[1][i].Halted() {
				return fmt.Errorf("thread %d: halted %v on shadow, %v on ref", th.ID, th.Halted(), threads[1][i].Halted())
			}
			if th.Halted() && !released[th.ID] {
				released[th.ID] = true
				shadow.tr.(*Tracker).Release(th.ID)
				if live > 0 {
					cov.releasedBesideLive++
				}
			}
		}
		shadow.m.Reap()
		ref.m.Reap()
		return nil
	}
	compare := func() error {
		if !reflect.DeepEqual(shadow.tr.Flows(), ref.tr.Flows()) {
			return fmt.Errorf("flows differ:\nshadow %v\nref    %v", shadow.tr.Flows(), ref.tr.Flows())
		}
		if !reflect.DeepEqual(shadow.calls, ref.calls) {
			return fmt.Errorf("callback sequences differ:\nshadow %v\nref    %v", shadow.calls, ref.calls)
		}
		for _, l := range diffLocks {
			l := int32(l)
			if !reflect.DeepEqual(shadow.tr.Producers(l), ref.tr.Producers(l)) ||
				!reflect.DeepEqual(shadow.tr.Consumers(l), ref.tr.Consumers(l)) ||
				shadow.tr.NonFlow(l) != ref.tr.NonFlow(l) {
				return fmt.Errorf("lock %d: shadow P%v C%v nonflow=%v, ref P%v C%v nonflow=%v", l,
					shadow.tr.Producers(l), shadow.tr.Consumers(l), shadow.tr.NonFlow(l),
					ref.tr.Producers(l), ref.tr.Consumers(l), ref.tr.NonFlow(l))
			}
		}
		want := 0
		for loc := range ref.tr.(*refTracker).dict {
			if loc.Kind != vm.LocReg || !released[loc.Thread] {
				want++
			}
		}
		if got := shadow.tr.(*Tracker).DictSize(); got != want {
			return fmt.Errorf("DictSize %d, oracle holds %d entries outside released threads", got, want)
		}
		if shadow.m.TotalCycles != ref.m.TotalCycles {
			return fmt.Errorf("machines diverged: %d cycles on shadow, %d on ref", shadow.m.TotalCycles, ref.m.TotalCycles)
		}
		return nil
	}

	for n := 2 + rng.Intn(3); n > 0; n-- {
		spawn()
	}
	for round := 0; round < 12; round++ {
		for steps := rng.Intn(40); steps > 0; steps-- {
			shadow.m.Step()
			ref.m.Step()
		}
		if err := release(); err != nil {
			return err
		}
		if len(threads[0]) < 12 && rng.Intn(2) == 0 {
			spawn()
		}
		if err := compare(); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	for _, s := range sides {
		if err := s.m.Run(1_000_000); err != nil {
			return fmt.Errorf("run to completion: %w", err)
		}
	}
	if err := release(); err != nil {
		return err
	}
	if err := compare(); err != nil {
		return fmt.Errorf("at completion: %w", err)
	}
	st := shadow.tr.(*Tracker).Stats()
	if st.RegFilesLive != 0 {
		return fmt.Errorf("%d register files live after every thread was released", st.RegFilesLive)
	}
	cov.flows += st.Flows
	cov.lockFlushes += st.LockFlushes
	cov.consumes += st.Consumes
	cov.spilled += int64(len(shadow.tr.(*Tracker).spill))
	for _, c := range shadow.calls {
		if c[0] == 'n' {
			cov.nonFlows++
		}
	}
	return nil
}

// TestTrackerDifferential: on seeded generated programs the shadow-state
// Tracker and the map-keyed oracle agree on everything observable.
func TestTrackerDifferential(t *testing.T) {
	var cov diffCoverage
	check := func(seed int64) bool {
		if err := diffCase(seed, &cov); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	if cov.flows == 0 || cov.nonFlows == 0 || cov.lockFlushes == 0 || cov.consumes == cov.flows ||
		cov.spilled == 0 || cov.releasedBesideLive == 0 {
		t.Fatalf("generated cases left a behaviour unexercised: %+v", cov)
	}
	t.Logf("coverage over %d cases: %+v", cfg.MaxCount, cov)
}
