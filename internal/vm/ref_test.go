package vm

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file keeps a naive reference interpreter — the machine exactly as
// it was before the direct-threaded rewrite: map-backed memory, locks and
// non-flow sets, a full-thread round-robin scan per step, a fresh Access
// per traced instruction — and differentially checks the predecoded
// machine against it on randomized programs: same per-thread registers,
// cycles, PCs and halt states, same memory contents, same total cycles,
// same Run verdicts, and the same trace-event sequence, event for event.

// --- reference implementation ---------------------------------------

type refLock struct {
	owner   int32
	waiters []*refThread
}

type refThread struct {
	id        int32
	prog      *Program
	pc        int
	regs      [NumRegs]int64
	cycles    int64
	halted    bool
	blockedOn int
	granted   bool
	heldLocks []int
	window    int
}

func (t *refThread) blocked() bool { return t.blockedOn >= 0 && !t.granted }

type refMachine struct {
	mem        map[uint32]int64
	threads    []*refThread
	tracer     Tracer
	cost       CostModel
	mode       ExecMode
	maxWindow  int
	total      int64
	locks      map[int]*refLock
	translated map[*Program][]bool
	nonFlow    map[int]bool
	rr         int
}

func newRefMachine() *refMachine {
	return &refMachine{
		mem:        make(map[uint32]int64),
		cost:       DefaultCostModel(),
		maxWindow:  DefaultMaxWindow,
		locks:      make(map[int]*refLock),
		translated: make(map[*Program][]bool),
		nonFlow:    make(map[int]bool),
	}
}

func (m *refMachine) spawn(prog *Program, label string) *refThread {
	pc, err := prog.Entry(label)
	if err != nil {
		panic(err)
	}
	t := &refThread{id: int32(len(m.threads)), prog: prog, pc: pc, blockedOn: -1}
	m.threads = append(m.threads, t)
	return t
}

func (m *refMachine) run(maxSteps int64) error {
	for steps := int64(0); ; steps++ {
		if steps >= maxSteps {
			return ErrStepLimit
		}
		progressed, anyLive := m.step()
		if !anyLive {
			return nil
		}
		if !progressed {
			return ErrDeadlock
		}
	}
}

func (m *refMachine) step() (progressed, anyLive bool) {
	n := len(m.threads)
	for i := 0; i < n; i++ {
		t := m.threads[(m.rr+i)%n]
		if t.halted || t.blocked() {
			continue
		}
		m.rr = (m.rr + i + 1) % n
		m.exec(t)
		return true, m.liveAny()
	}
	return false, m.liveAny()
}

func (m *refMachine) liveAny() bool {
	for _, t := range m.threads {
		if !t.halted {
			return true
		}
	}
	return false
}

func (m *refMachine) traced(t *refThread) bool {
	if m.mode != ModeEmulateCS {
		return false
	}
	if len(t.heldLocks) > 0 {
		return !m.nonFlow[t.heldLocks[0]]
	}
	return t.window > 0
}

func (m *refMachine) charge(t *refThread, pc int, emulated bool) {
	var c int64
	if emulated {
		cache := m.translated[t.prog]
		if cache == nil {
			cache = make([]bool, len(t.prog.Code))
			m.translated[t.prog] = cache
		}
		c = m.cost.Emulate
		if !cache[pc] {
			c += m.cost.Translate
			cache[pc] = true
		}
	} else {
		c = m.cost.direct(t.prog.Code[pc].Op)
	}
	t.cycles += c
	m.total += c
}

func (m *refMachine) lock(id int) *refLock {
	l, ok := m.locks[id]
	if !ok {
		l = &refLock{owner: -1}
		m.locks[id] = l
	}
	return l
}

func (m *refMachine) exec(t *refThread) {
	if t.pc < 0 || t.pc >= len(t.prog.Code) {
		t.halted = true
		return
	}
	pc := t.pc
	in := t.prog.Code[pc]
	emu := m.traced(t)

	switch in.Op {
	case LOCK:
		id := int(in.Imm)
		l := m.lock(id)
		switch {
		case l.owner == t.id && t.granted:
			t.granted = false
			t.blockedOn = -1
		case l.owner == -1:
			l.owner = t.id
		default:
			t.blockedOn = id
			l.waiters = append(l.waiters, t)
			return
		}
		t.heldLocks = append(t.heldLocks, id)
		if len(t.heldLocks) == 1 {
			t.window = 0
			if m.tracer != nil && m.mode == ModeEmulateCS && !m.nonFlow[id] {
				m.tracer.OnLock(int(t.id), id)
			}
		}
		m.charge(t, pc, m.traced(t))
		t.pc++
		return
	case UNLOCK:
		id := int(in.Imm)
		idx := -1
		for i, h := range t.heldLocks {
			if h == id {
				idx = i
				break
			}
		}
		if idx < 0 {
			panic(fmt.Sprintf("ref: thread %d unlocks %d it does not hold", t.id, id))
		}
		wasEmu := m.traced(t)
		outermost := idx == 0 && len(t.heldLocks) == 1
		t.heldLocks = append(t.heldLocks[:idx], t.heldLocks[idx+1:]...)
		l := m.lock(id)
		l.owner = -1
		if len(l.waiters) > 0 {
			next := l.waiters[0]
			l.waiters = l.waiters[1:]
			l.owner = next.id
			next.granted = true
		}
		if outermost && wasEmu {
			t.window = m.maxWindow
			if m.tracer != nil {
				m.tracer.OnUnlock(int(t.id), id)
			}
		}
		m.charge(t, pc, wasEmu)
		t.pc++
		return
	}

	if len(t.heldLocks) == 0 && t.window > 0 {
		defer func() { t.window-- }()
	}
	m.charge(t, pc, emu)

	var ac *Access
	mem := func(base byte, off int64) uint32 { return uint32(t.regs[base] + off) }
	switch in.Op {
	case NOP:
	case HALT:
		t.halted = true
	case MOVRR:
		ac = &Access{Kind: AccMove, Src: RegLoc(t.id, in.RS), Dst: RegLoc(t.id, in.RD),
			Reads: []Loc{RegLoc(t.id, in.RS)}}
		t.regs[in.RD] = t.regs[in.RS]
	case MOVI:
		ac = &Access{Kind: AccWrite, Dst: RegLoc(t.id, in.RD)}
		t.regs[in.RD] = in.Imm
	case LOAD:
		a := mem(in.RS, in.Off)
		ac = &Access{Kind: AccMove, Src: MemLoc(a), Dst: RegLoc(t.id, in.RD),
			Reads: []Loc{RegLoc(t.id, in.RS), MemLoc(a)}}
		t.regs[in.RD] = m.mem[a]
	case STORE:
		a := mem(in.RD, in.Off)
		ac = &Access{Kind: AccMove, Src: RegLoc(t.id, in.RS), Dst: MemLoc(a),
			Reads: []Loc{RegLoc(t.id, in.RD), RegLoc(t.id, in.RS)}}
		m.mem[a] = t.regs[in.RS]
	case STOREI:
		a := mem(in.RD, in.Off)
		ac = &Access{Kind: AccWrite, Dst: MemLoc(a), Reads: []Loc{RegLoc(t.id, in.RD)}}
		m.mem[a] = in.Imm
	case ADD:
		ac = &Access{Kind: AccWrite, Dst: RegLoc(t.id, in.RD),
			Reads: []Loc{RegLoc(t.id, in.RS), RegLoc(t.id, in.RT)}}
		t.regs[in.RD] = t.regs[in.RS] + t.regs[in.RT]
	case SUB:
		ac = &Access{Kind: AccWrite, Dst: RegLoc(t.id, in.RD),
			Reads: []Loc{RegLoc(t.id, in.RS), RegLoc(t.id, in.RT)}}
		t.regs[in.RD] = t.regs[in.RS] - t.regs[in.RT]
	case ADDI:
		ac = &Access{Kind: AccWrite, Dst: RegLoc(t.id, in.RD),
			Reads: []Loc{RegLoc(t.id, in.RS)}}
		t.regs[in.RD] = t.regs[in.RS] + in.Imm
	case INCM:
		a := mem(in.RD, in.Off)
		ac = &Access{Kind: AccWrite, Dst: MemLoc(a),
			Reads: []Loc{RegLoc(t.id, in.RD), MemLoc(a)}}
		m.mem[a]++
	case DECM:
		a := mem(in.RD, in.Off)
		ac = &Access{Kind: AccWrite, Dst: MemLoc(a),
			Reads: []Loc{RegLoc(t.id, in.RD), MemLoc(a)}}
		m.mem[a]--
	case JMP:
		t.pc = in.Target
		return
	case JEQ, JNE, JLT, JGE:
		ac = &Access{Kind: AccRead, Reads: []Loc{RegLoc(t.id, in.RS)}}
		v := t.regs[in.RS]
		taken := false
		switch in.Op {
		case JEQ:
			taken = v == in.Imm
		case JNE:
			taken = v != in.Imm
		case JLT:
			taken = v < in.Imm
		case JGE:
			taken = v >= in.Imm
		}
		if m.tracer != nil && emu {
			m.refEmit(t, pc, in, ac)
		}
		if taken {
			t.pc = in.Target
			return
		}
		t.pc++
		return
	}
	if ac != nil && m.tracer != nil && emu {
		m.refEmit(t, pc, in, ac)
	}
	if !t.halted {
		t.pc++
	}
}

func (m *refMachine) refEmit(t *refThread, pc int, in Instr, ac *Access) {
	ac.Thread = t.id
	ac.PC = pc
	ac.Instr = in
	ac.InCS = len(t.heldLocks) > 0
	if ac.InCS {
		ac.Lock = int32(t.heldLocks[0])
	}
	ac.InWindow = !ac.InCS && t.window > 0
	m.tracer.OnAccess(*ac)
}

// --- trace comparison -------------------------------------------------

// traceEvent is a retained, normalized tracer event (Access.Reads is
// copied out of the machine's reusable buffer).
type traceEvent struct {
	kind   string // "lock", "unlock", "access"
	thread int
	lock   int
	ac     Access
	reads  []Loc
}

type captureTracer struct{ events []traceEvent }

func (c *captureTracer) OnAccess(ac Access) {
	ev := traceEvent{kind: "access", thread: int(ac.Thread), ac: ac}
	ev.reads = append(ev.reads, ac.Reads...)
	ev.ac.Reads = nil
	c.events = append(c.events, ev)
}
func (c *captureTracer) OnLock(tid, lock int) {
	c.events = append(c.events, traceEvent{kind: "lock", thread: tid, lock: lock})
}
func (c *captureTracer) OnUnlock(tid, lock int) {
	c.events = append(c.events, traceEvent{kind: "unlock", thread: tid, lock: lock})
}

func sameEvent(a, b traceEvent) bool {
	if a.kind != b.kind || a.thread != b.thread || a.lock != b.lock {
		return false
	}
	x, y := a.ac, b.ac
	if x.Thread != y.Thread || x.PC != y.PC || x.Instr != y.Instr || x.Kind != y.Kind ||
		x.Src != y.Src || x.Dst != y.Dst || x.InCS != y.InCS || x.Lock != y.Lock ||
		x.InWindow != y.InWindow {
		return false
	}
	if len(a.reads) != len(b.reads) {
		return false
	}
	for i := range a.reads {
		if a.reads[i] != b.reads[i] {
			return false
		}
	}
	return true
}

// --- random program generation ----------------------------------------

// genProg builds a random but well-formed program: straight-line data
// runs, bounded counter loops, forward branches, and well-nested
// critical sections — so execution always terminates and UNLOCK always
// matches a held lock, while still covering branches (taken and not),
// lock hand-offs, post-CS windows and window expiry.
func genProg(r *rand.Rand, name string) *Program {
	p := &Program{Name: name, Labels: map[string]int{"main": 0}}
	emit := func(in Instr) { p.Code = append(p.Code, in) }
	dataOp := func() Instr {
		rd := byte(r.Intn(NumRegs))
		rs := byte(r.Intn(NumRegs))
		rt := byte(r.Intn(NumRegs))
		imm := int64(r.Intn(64) - 8)
		// Addresses derive from register contents; keep offsets small so
		// most land in the dense range while negative register values
		// still exercise the wrap-around spill path.
		off := int64(r.Intn(16))
		switch r.Intn(10) {
		case 0:
			return Instr{Op: NOP}
		case 1:
			return Instr{Op: MOVRR, RD: rd, RS: rs}
		case 2:
			return Instr{Op: MOVI, RD: rd, Imm: imm * 64}
		case 3:
			return Instr{Op: LOAD, RD: rd, RS: rs, Off: off}
		case 4:
			return Instr{Op: STORE, RD: rd, RS: rs, Off: off}
		case 5:
			return Instr{Op: STOREI, RD: rd, Imm: imm, Off: off}
		case 6:
			return Instr{Op: ADD, RD: rd, RS: rs, RT: rt}
		case 7:
			return Instr{Op: SUB, RD: rd, RS: rs, RT: rt}
		case 8:
			return Instr{Op: ADDI, RD: rd, RS: rs, Imm: imm}
		default:
			if r.Intn(2) == 0 {
				return Instr{Op: INCM, RD: rd, Off: off}
			}
			return Instr{Op: DECM, RD: rd, Off: off}
		}
	}
	dataRun := func(n int) {
		for i := 0; i < n; i++ {
			emit(dataOp())
		}
	}
	for frag := 0; frag < 3+r.Intn(5); frag++ {
		switch r.Intn(4) {
		case 0: // straight-line run
			dataRun(1 + r.Intn(6))
		case 1: // bounded counter loop
			ctr := byte(r.Intn(NumRegs))
			emit(Instr{Op: MOVI, RD: ctr, Imm: int64(1 + r.Intn(4))})
			top := len(p.Code)
			dataRunNoReg := 1 + r.Intn(3)
			for i := 0; i < dataRunNoReg; i++ {
				in := dataOp()
				// The loop counter must only be touched by the decrement.
				if (in.Op == MOVRR || in.Op == MOVI || in.Op == LOAD ||
					in.Op == ADD || in.Op == SUB || in.Op == ADDI) && in.RD == ctr {
					in.RD = (ctr + 1) % NumRegs
				}
				emit(in)
			}
			emit(Instr{Op: ADDI, RD: ctr, RS: ctr, Imm: -1})
			emit(Instr{Op: JNE, RS: ctr, Imm: 0, Target: top})
		case 2: // critical section, possibly nested
			outer := 1 + r.Intn(3)
			emit(Instr{Op: LOCK, Imm: int64(outer)})
			dataRun(1 + r.Intn(4))
			if r.Intn(3) == 0 {
				inner := outer + 1 + r.Intn(2)
				emit(Instr{Op: LOCK, Imm: int64(inner)})
				dataRun(1 + r.Intn(3))
				emit(Instr{Op: UNLOCK, Imm: int64(inner)})
			}
			emit(Instr{Op: UNLOCK, Imm: int64(outer)})
			dataRun(r.Intn(4)) // post-CS window activity
		case 3: // forward branch over a short run
			cond := byte(r.Intn(NumRegs))
			jumpAt := len(p.Code)
			emit(Instr{}) // placeholder
			dataRun(1 + r.Intn(3))
			ops := []Op{JEQ, JNE, JLT, JGE}
			p.Code[jumpAt] = Instr{Op: ops[r.Intn(len(ops))], RS: cond,
				Imm: int64(r.Intn(8)), Target: len(p.Code)}
		}
	}
	emit(Instr{Op: HALT})
	return p
}

// --- the differential test --------------------------------------------

func runDifferential(t *testing.T, seed int64, mode ExecMode, withTracer bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))

	nProgs := 1 + r.Intn(2)
	progs := make([]*Program, nProgs)
	for i := range progs {
		progs[i] = genProg(r, fmt.Sprintf("fuzz%d_%d", seed, i))
	}

	m := NewMachine()
	m.Mode = mode
	ref := newRefMachine()
	ref.mode = mode

	var mTrace, refTrace *captureTracer
	if withTracer {
		mTrace, refTrace = &captureTracer{}, &captureTracer{}
		m.Tracer = mTrace
		ref.tracer = refTrace
	}

	nThreads := 1 + r.Intn(3)
	for i := 0; i < nThreads; i++ {
		prog := progs[r.Intn(nProgs)]
		th, err := m.Spawn(prog, "main")
		if err != nil {
			t.Fatal(err)
		}
		rt := ref.spawn(prog, "main")
		for j := 0; j < NumRegs; j++ {
			v := int64(r.Intn(0x300))
			th.Regs[j], rt.regs[j] = v, v
		}
	}

	const limit = 5000
	errM := m.Run(limit)
	errR := ref.run(limit)
	if errM != errR {
		t.Fatalf("seed %d mode %d: Run: machine=%v reference=%v", seed, mode, errM, errR)
	}
	if m.TotalCycles != ref.total {
		t.Fatalf("seed %d mode %d: TotalCycles %d != %d", seed, mode, m.TotalCycles, ref.total)
	}
	for i, th := range m.Threads {
		rt := ref.threads[i]
		if th.PC != rt.pc || th.Cycles != rt.cycles || th.Halted() != rt.halted || th.Regs != rt.regs {
			t.Fatalf("seed %d mode %d thread %d: (pc=%d cyc=%d halted=%v regs=%v) != ref (pc=%d cyc=%d halted=%v regs=%v)",
				seed, mode, i, th.PC, th.Cycles, th.Halted(), th.Regs, rt.pc, rt.cycles, rt.halted, rt.regs)
		}
	}
	for a, v := range ref.mem {
		if got := m.Mem.Load(a); got != v {
			t.Fatalf("seed %d mode %d: mem[%#x] = %d, reference %d", seed, mode, a, got, v)
		}
	}
	if withTracer {
		if len(mTrace.events) != len(refTrace.events) {
			t.Fatalf("seed %d mode %d: %d trace events, reference %d",
				seed, mode, len(mTrace.events), len(refTrace.events))
		}
		for i := range mTrace.events {
			if !sameEvent(mTrace.events[i], refTrace.events[i]) {
				t.Fatalf("seed %d mode %d: trace event %d differs:\n  got %+v\n  ref %+v",
					seed, mode, i, mTrace.events[i], refTrace.events[i])
			}
		}
	}
}

func TestDifferentialAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		runDifferential(t, seed, ModeDirect, false)
		runDifferential(t, seed, ModeEmulateCS, true)
		runDifferential(t, seed, ModeEmulateCS, false)
	}
}

// TestDifferentialQueuePrograms pins the library's real critical
// sections — the shapes every app executes — against the reference.
func TestDifferentialQueuePrograms(t *testing.T) {
	push := MustAssemble("p", `
	push:
		lock 1
		load  r3, [r1]
		add   r6, r3, r3
		movi  r7, 0x1010
		add   r7, r7, r6
		store [r7+0], r4
		store [r7+1], r5
		incm  [r1]
		unlock 1
		halt
	`)
	pop := MustAssemble("q", `
	pop:
		lock 1
		decm  [r1]
		load  r3, [r1]
		add   r6, r3, r3
		movi  r7, 0x1010
		add   r7, r7, r6
		load  r4, [r7+0]
		load  r5, [r7+1]
		unlock 1
		store [r9+0], r4
		store [r9+1], r5
		halt
	`)
	m := NewMachine()
	m.Mode = ModeEmulateCS
	ref := newRefMachine()
	ref.mode = ModeEmulateCS
	mT, rT := &captureTracer{}, &captureTracer{}
	m.Tracer, ref.tracer = mT, rT

	for _, spec := range []struct {
		prog  *Program
		entry string
		regs  map[byte]int64
	}{
		{push, "push", map[byte]int64{1: 0x1000, 4: 7, 5: 8}},
		{pop, "pop", map[byte]int64{1: 0x1000, 9: 0x8000}},
	} {
		th, err := m.Spawn(spec.prog, spec.entry)
		if err != nil {
			t.Fatal(err)
		}
		rt := ref.spawn(spec.prog, spec.entry)
		for reg, v := range spec.regs {
			th.Regs[reg], rt.regs[reg] = v, v
		}
	}
	if errM, errR := m.Run(100000), ref.run(100000); errM != nil || errR != nil {
		t.Fatalf("run: machine=%v reference=%v", errM, errR)
	}
	if m.TotalCycles != ref.total {
		t.Fatalf("TotalCycles %d != %d", m.TotalCycles, ref.total)
	}
	if len(mT.events) != len(rT.events) {
		t.Fatalf("%d trace events, reference %d", len(mT.events), len(rT.events))
	}
	for i := range mT.events {
		if !sameEvent(mT.events[i], rT.events[i]) {
			t.Fatalf("trace event %d differs:\n  got %+v\n  ref %+v", i, mT.events[i], rT.events[i])
		}
	}
}
