package vm

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble("t", `
		; a comment
		start:
			movi r1, 5
			addi r1, r1, -2
			jne r1, 0, start
			halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 4 {
		t.Fatalf("code len = %d, want 4", len(p.Code))
	}
	if pc, _ := p.Entry("start"); pc != 0 {
		t.Fatalf("start = %d", pc)
	}
	if p.Code[2].Target != 0 {
		t.Fatalf("jump target = %d, want 0", p.Code[2].Target)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"mov r1",
		"movi r99, 1",
		"jmp nowhere",
		"load r1, r2",
		"store [r1+x], r2",
		"dup: nop\ndup: nop",
	}
	for _, src := range cases {
		if _, err := Assemble("t", src); err == nil {
			t.Errorf("assembling %q should fail", src)
		}
	}
}

func TestDisassembleRoundTripMnemonic(t *testing.T) {
	p := MustAssemble("t", `
		mov r1, r2
		load r3, [r4+8]
		store [r5-4], r6
		storei [r7], 9
		incm [r1]
		lock 3
		unlock 3
	`)
	wants := []string{"mov r1, r2", "load r3, [r4+8]", "store [r5-4], r6",
		"storei [r7+0], 9", "incm [r1+0]", "lock 3", "unlock 3"}
	for i, w := range wants {
		if got := p.Code[i].String(); got != w {
			t.Errorf("instr %d = %q, want %q", i, got, w)
		}
	}
}

func run(t *testing.T, src string) (*Machine, *Thread) {
	t.Helper()
	p := MustAssemble("t", src)
	m := NewMachine()
	th, err := m.Spawn(p, "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	return m, th
}

func TestArithmeticAndMemory(t *testing.T) {
	m, th := run(t, `
	main:
		movi r1, 0x100
		movi r2, 7
		store [r1], r2
		load r3, [r1]
		add r4, r3, r3
		sub r5, r4, r3
		incm [r1]
		halt
	`)
	if th.Regs[4] != 14 || th.Regs[5] != 7 {
		t.Fatalf("regs = %v", th.Regs[:6])
	}
	if m.Mem.Load(0x100) != 8 {
		t.Fatalf("mem = %d, want 8", m.Mem.Load(0x100))
	}
}

func TestLoopExecution(t *testing.T) {
	_, th := run(t, `
	main:
		movi r1, 0
		movi r2, 10
	loop:
		addi r1, r1, 1
		sub r3, r2, r1
		jne r3, 0, loop
		halt
	`)
	if th.Regs[1] != 10 {
		t.Fatalf("r1 = %d, want 10", th.Regs[1])
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// Two threads each do 100 increments of a shared counter under a lock;
	// interleaved execution must still total 200 because LOCK serializes.
	prog := MustAssemble("counter", `
	main:
		movi r1, 0x100
		movi r2, 100
	loop:
		lock 1
		incm [r1]
		unlock 1
		addi r2, r2, -1
		jne r2, 0, loop
		halt
	`)
	m := NewMachine()
	if _, err := m.Spawn(prog, "main"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(prog, "main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1000000); err != nil {
		t.Fatal(err)
	}
	if m.Mem.Load(0x100) != 200 {
		t.Fatalf("counter = %d, want 200", m.Mem.Load(0x100))
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Two threads acquire two locks in opposite order with a handshake that
	// guarantees the classic deadlock interleaving under round-robin.
	a := MustAssemble("a", `
	main:
		lock 1
		nop
		nop
		lock 2
		unlock 2
		unlock 1
		halt
	`)
	b := MustAssemble("b", `
	main:
		lock 2
		nop
		nop
		lock 1
		unlock 1
		unlock 2
		halt
	`)
	m := NewMachine()
	m.Spawn(a, "main")
	m.Spawn(b, "main")
	if err := m.Run(10000); err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestStepLimit(t *testing.T) {
	m := NewMachine()
	m.Spawn(MustAssemble("spin", "main: jmp main"), "main")
	if err := m.Run(100); err != ErrStepLimit {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

// TestUnlockWithoutHoldIsAnError runs a program that unlocks a lock it
// does not hold, alone (Run's single-thread path) and beside another
// thread (the round-robin path): the thread halts and Run returns the
// fault, once.
func TestUnlockWithoutHoldIsAnError(t *testing.T) {
	bad := MustAssemble("bad", "main: unlock 1\nhalt")
	spin := MustAssemble("spin", "main: nop\nnop\nnop\nhalt")
	for _, progs := range [][]*Program{{bad}, {spin, bad}} {
		m := NewMachine()
		for _, p := range progs {
			m.Spawn(p, "main")
		}
		err := m.Run(100)
		if err == nil || !strings.Contains(err.Error(), "unlocks 1 it does not hold") {
			t.Fatalf("%d threads: err = %v, want the unheld unlock", len(progs), err)
		}
		if th := m.Threads[len(progs)-1]; !th.Halted() {
			t.Fatalf("%d threads: the faulting thread did not halt", len(progs))
		}
		if err := m.Run(100); err != nil {
			t.Fatalf("%d threads: Run after the fault: %v", len(progs), err)
		}
	}
}

// TestNegativeLockIDBlocks takes a negative and a huge lock id twice in
// one thread: like any other id, the second acquisition blocks and Run
// reports the deadlock instead of spinning to the step limit. The huge
// ids are the ends of int32, past the dense lock table.
func TestNegativeLockIDBlocks(t *testing.T) {
	for _, id := range []string{"1", "-1", "2147483647", "-2147483648"} {
		m := NewMachine()
		if _, err := m.Spawn(MustAssemble("twice", "main: lock "+id+"\nlock "+id+"\nhalt"), "main"); err != nil {
			t.Fatalf("lock %s: %v", id, err)
		}
		if err := m.Run(100); err != ErrDeadlock {
			t.Fatalf("lock %s twice: err = %v, want ErrDeadlock", id, err)
		}
	}
}

func TestDirectCostsCharged(t *testing.T) {
	m, th := run(t, `
	main:
		movi r1, 1
		halt
	`)
	want := m.Cost.direct(MOVI) + m.Cost.direct(HALT)
	if th.Cycles != want {
		t.Fatalf("cycles = %d, want %d", th.Cycles, want)
	}
}

func TestEmulationCostsAndTranslationCache(t *testing.T) {
	src := `
	main:
		lock 1
		movi r1, 1
		unlock 1
		halt
	`
	cold := func() *Machine {
		p := MustAssemble("t", src)
		m := NewMachine()
		m.Mode = ModeEmulateCS
		m.Spawn(p, "main")
		m.Run(1000)
		return m
	}
	m1 := cold()
	// Second run of the same program text on a machine with a warm cache.
	p := MustAssemble("t", src)
	m2 := NewMachine()
	m2.Mode = ModeEmulateCS
	m2.Spawn(p, "main")
	m2.Run(1000)
	warmThread, _ := m2.Spawn(p, "main")
	m2.Run(1000)

	coldCycles := m1.Threads[0].Cycles
	warmCycles := warmThread.Cycles
	if coldCycles <= warmCycles {
		t.Fatalf("cold %d should exceed warm %d (translation cached)", coldCycles, warmCycles)
	}
	// Warm emulation must still be far costlier than direct execution.
	m3 := NewMachine()
	m3.Spawn(MustAssemble("t", src), "main")
	m3.Run(1000)
	direct := m3.Threads[0].Cycles
	if warmCycles < 10*direct {
		t.Fatalf("warm emulation %d not >> direct %d", warmCycles, direct)
	}
}

func TestNonFlowLockRunsNative(t *testing.T) {
	src := `
	main:
		lock 1
		movi r1, 1
		unlock 1
		halt
	`
	m := NewMachine()
	m.Mode = ModeEmulateCS
	m.SetNonFlow(1)
	m.Spawn(MustAssemble("t", src), "main")
	m.Run(1000)
	native := NewMachine()
	native.Spawn(MustAssemble("t", src), "main")
	native.Run(1000)
	if m.Threads[0].Cycles != native.Threads[0].Cycles {
		t.Fatalf("non-flow CS cycles %d != native %d", m.Threads[0].Cycles, native.Threads[0].Cycles)
	}
}

type recordTracer struct {
	accesses []Access
	locks    []int
	unlocks  []int
}

func (r *recordTracer) OnAccess(ac Access)     { r.accesses = append(r.accesses, ac) }
func (r *recordTracer) OnLock(tid, lock int)   { r.locks = append(r.locks, lock) }
func (r *recordTracer) OnUnlock(tid, lock int) { r.unlocks = append(r.unlocks, lock) }

func TestTracerSeesOnlyCriticalSectionAndWindow(t *testing.T) {
	src := `
	main:
		movi r1, 0x100   ; outside: not traced
		lock 1
		store [r1], r2   ; traced, in CS
		unlock 1
		movi r3, 5       ; traced, window
		halt
	`
	p := MustAssemble("t", src)
	m := NewMachine()
	m.Mode = ModeEmulateCS
	tr := &recordTracer{}
	m.Tracer = tr
	m.Spawn(p, "main")
	m.Run(1000)
	if len(tr.locks) != 1 || len(tr.unlocks) != 1 {
		t.Fatalf("lock events = %v %v", tr.locks, tr.unlocks)
	}
	if len(tr.accesses) != 2 {
		t.Fatalf("accesses = %d, want 2 (store in CS + movi in window)", len(tr.accesses))
	}
	if !tr.accesses[0].InCS || tr.accesses[0].Lock != 1 {
		t.Fatalf("first access should be in CS of lock 1: %+v", tr.accesses[0])
	}
	if !tr.accesses[1].InWindow || tr.accesses[1].InCS {
		t.Fatalf("second access should be in window: %+v", tr.accesses[1])
	}
}

func TestWindowExpires(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("main:\n lock 1\n store [r1], r2\n unlock 1\n")
	for i := 0; i < DefaultMaxWindow+10; i++ {
		sb.WriteString(" movi r3, 1\n")
	}
	sb.WriteString(" halt\n")
	p := MustAssemble("t", sb.String())
	m := NewMachine()
	m.Mode = ModeEmulateCS
	tr := &recordTracer{}
	m.Tracer = tr
	m.Spawn(p, "main")
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	// 1 store in CS + exactly MaxWindow window instructions.
	if got := len(tr.accesses); got != 1+DefaultMaxWindow {
		t.Fatalf("traced %d accesses, want %d", got, 1+DefaultMaxWindow)
	}
}

func TestNestedLocksTracedUnderOutermost(t *testing.T) {
	src := `
	main:
		lock 1
		lock 2
		store [r1], r2
		unlock 2
		store [r1], r3
		unlock 1
		halt
	`
	p := MustAssemble("t", src)
	m := NewMachine()
	m.Mode = ModeEmulateCS
	tr := &recordTracer{}
	m.Tracer = tr
	m.Spawn(p, "main")
	m.Run(1000)
	if len(tr.locks) != 1 || tr.locks[0] != 1 {
		t.Fatalf("outermost lock events = %v", tr.locks)
	}
	for _, ac := range tr.accesses {
		if ac.InCS && ac.Lock != 1 {
			t.Fatalf("access attributed to lock %d, want outermost 1", ac.Lock)
		}
	}
}

func TestRearmIsAFreshThreadInOldStorage(t *testing.T) {
	p := MustAssemble("t", `
	skip:
		halt
	main:
		lock 1
		incm [r1]
		unlock 1
		add r2, r2, r1
		halt
	`)
	m := NewMachine()
	other, _ := m.Spawn(p, "skip") // takes id 0, so ids and spawn order differ
	th, err := m.Spawn(p, "main")
	if err != nil {
		t.Fatal(err)
	}
	th.Regs[1] = 0x100
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	first := *th
	m.Reap()
	for i := int32(2); i < 5; i++ {
		m.Rearm(th)
		if th.ID != i || th.Halted() || th.Cycles != 0 || th.Regs != ([NumRegs]int64{}) {
			t.Fatalf("re-armed thread: id %d halted %v cycles %d regs %v, want id %d, runnable, zeroed", th.ID, th.Halted(), th.Cycles, th.Regs[:3], i)
		}
		if len(m.Threads) != 1 || m.Threads[0] != th {
			t.Fatalf("machine holds %d threads after Rearm, want the re-armed one", len(m.Threads))
		}
		th.Regs[1] = 0x100
		if err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		if !th.Halted() || th.Cycles != first.Cycles || th.PC != first.PC || th.Regs[2] != 0x100 {
			t.Fatalf("re-armed run: halted %v, %d cycles, pc %d, r2 %#x; the first run took %d cycles to pc %d", th.Halted(), th.Cycles, th.PC, th.Regs[2], first.Cycles, first.PC)
		}
		m.Reap()
	}
	if got := m.Mem.Load(0x100); got != 4 {
		t.Fatalf("four executions incremented the word to %d", got)
	}
	if next, _ := m.Spawn(p, "skip"); next.ID != 5 || other.ID != 0 {
		t.Fatalf("ids after three re-arms: next spawn got %d, want 5", next.ID)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Rearm of a running thread did not panic")
		}
	}()
	live, _ := m.Spawn(p, "main")
	m.Rearm(live)
}

// setNextID makes id the next thread id m issues, so a test reaches the
// end of the id space without spawning 2^31 threads.
func setNextID(m *Machine, id int64) { m.nextID = id }

// TestThreadIDsRefusedPastMaxInt32 issues the last thread id, then asks
// for one more through Spawn and through Rearm: each is refused with
// ErrThreadIDs (Rearm's at the next Run), and no id wraps.
func TestThreadIDsRefusedPastMaxInt32(t *testing.T) {
	p := MustAssemble("t", "main: lock 1\nmovi r1, 1\nunlock 1\nhalt")
	for _, mode := range []ExecMode{ModeDirect, ModeEmulateCS} {
		m := NewMachine()
		m.Mode = mode
		setNextID(m, math.MaxInt32)
		th, err := m.Spawn(p, "main")
		if err != nil || th.ID != math.MaxInt32 {
			t.Fatalf("mode %d: the last id: thread %v, err %v", mode, th, err)
		}
		if err := m.Run(100); err != nil {
			t.Fatal(err)
		}
		m.Reap()
		if next, err := m.Spawn(p, "main"); !errors.Is(err, ErrThreadIDs) || next != nil {
			t.Fatalf("mode %d: Spawn past the last id: thread %v, err %v", mode, next, err)
		}
		m.Rearm(th)
		if err := m.Run(100); !errors.Is(err, ErrThreadIDs) {
			t.Fatalf("mode %d: Run after a Rearm past the last id: err %v", mode, err)
		}
		if th.ID != math.MaxInt32 || !th.Halted() || len(m.Threads) != 0 {
			t.Fatalf("mode %d: refused Rearm left thread %d halted %v, %d threads", mode, th.ID, th.Halted(), len(m.Threads))
		}
		if err := m.Run(100); err != nil {
			t.Fatalf("mode %d: the refusal is returned once, then Run: %v", mode, err)
		}
	}
}

// TestLockIDsOutsideInt32FailSpawn assembles a LOCK or UNLOCK one past
// either end of int32: Spawn fails with ErrLockID, naming the program,
// and spawns no thread.
func TestLockIDsOutsideInt32FailSpawn(t *testing.T) {
	ends := MustAssemble("ends", "main: lock 2147483647\nlock -2147483648\nunlock -2147483648\nunlock 2147483647\nhalt")
	for _, src := range []string{
		"main: lock 2147483648\nunlock 2147483648\nhalt",
		"main: lock -2147483649\nunlock -2147483649\nhalt",
		"main: lock 1\nunlock 2147483648\nhalt",
		"main: halt\nother: unlock -9223372036854775808\nhalt",
	} {
		m := NewMachine()
		th, err := m.Spawn(MustAssemble("wide", src), "main")
		if !errors.Is(err, ErrLockID) || !strings.Contains(err.Error(), `"wide"`) || th != nil || len(m.Threads) != 0 {
			t.Fatalf("%q: thread %v, %d threads, err %v; want ErrLockID naming the program", src, th, len(m.Threads), err)
		}
		if th, err := m.Spawn(ends, "main"); err != nil || th.ID != 0 {
			t.Fatalf("%q: a valid program after the refusal: thread %v, err %v", src, th, err)
		}
	}
}
