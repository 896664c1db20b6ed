package vm

import (
	"errors"
	"fmt"
	"math"
)

// ExecMode selects how the machine runs critical sections.
type ExecMode uint8

const (
	// ModeDirect executes everything natively (no tracing, direct costs).
	ModeDirect ExecMode = iota
	// ModeEmulateCS executes critical sections (and a MaxWindow-instruction
	// window after each) under emulation with tracing, except for locks
	// marked non-flow, which fall back to native execution (§7.2).
	ModeEmulateCS
)

// CostModel gives per-instruction cycle costs under the three execution
// regimes of Table 3: native (direct) execution, first-time translation
// plus emulation, and cached-translation emulation. The model is read
// once per program when the program is first spawned on a machine (the
// native costs are baked into the predecoded form); set it before
// spawning threads.
type CostModel struct {
	Direct    map[Op]int64 // native cycles per op
	DirectDef int64        // native cycles for ops missing from Direct
	Translate int64        // one-time translation cycles per instruction
	Emulate   int64        // emulation cycles per instruction execution
}

// DefaultCostModel is calibrated so Apache's ~12-instruction ap_queue_push
// critical section costs on the order of 130 cycles natively, tens of
// thousands with translation and ~10K cycles from the translation cache,
// matching Table 3's relative magnitudes.
func DefaultCostModel() CostModel {
	return CostModel{
		Direct: map[Op]int64{
			NOP: 1, MOVRR: 4, MOVI: 4, LOAD: 10, STORE: 10, STOREI: 10,
			ADD: 5, SUB: 5, ADDI: 5, INCM: 14, DECM: 14,
			JMP: 4, JEQ: 6, JNE: 6, JLT: 6, JGE: 6,
			LOCK: 24, UNLOCK: 18, HALT: 1,
		},
		DirectDef: 5,
		Translate: 4300,
		Emulate:   950,
	}
}

func (c CostModel) direct(op Op) int64 {
	if v, ok := c.Direct[op]; ok {
		return v
	}
	return c.DirectDef
}

// DefaultMaxWindow is MAX from §7.2: the number of instructions emulated
// past a critical-section exit to observe the consume.
const DefaultMaxWindow = 128

// Thread is one hardware thread of the machine.
type Thread struct {
	ID   int32 // issued by Spawn or Rearm, never reused (see Machine)
	Prog *Program
	PC   int
	Regs [NumRegs]int64

	// Cycles accumulates the cycle cost of every instruction this thread
	// executed, per the machine's cost model and execution mode.
	Cycles int64

	ps        *progState // machine-local predecoded program state
	code      []dinstr   // ps.code, cached for one less indirection
	entry     int        // the pc it was spawned at, for Rearm
	halted    bool
	blocked   bool // waiting for a lock
	granted   bool
	heldLocks []int32
	window    int // remaining post-critical-section traced instructions
}

// Halted reports whether the thread has executed HALT, run off the end
// of its program, or faulted (see Machine.Run).
func (t *Thread) Halted() bool { return t.halted }

// Blocked reports whether the thread is waiting on a lock.
func (t *Thread) Blocked() bool { return t.blocked && !t.granted }

type mlock struct {
	owner   int32 // thread id, or -1
	waiters []*Thread
}

// lockDenseLimit bounds the dense lock table; App.ReserveCS hands out
// ids counting up from 1, so real ids are small. Larger (or negative)
// ids spill to a map.
const lockDenseLimit = 1 << 16

// Machine is a multi-threaded execution engine over a shared word
// memory. Threads are interleaved round-robin one instruction at a time,
// deterministically.
//
// The interpreter is direct-threaded: each program is predecoded once
// per machine into a dense internal form with the native cycle cost and
// unpacked operands baked into every instruction, machine state (memory,
// locks, the non-flow lock set) is slice-backed with map spill paths for
// sparse ids, and the scheduler keeps a ring of unhalted threads so
// stepping never scans halted ones. The steady-state emulation path
// performs no heap allocation.
//
// Thread ids and lock ids are int32, the width at which a Loc and the
// flow tracker's records hold them. Spawn and Rearm issue thread ids
// counting up from 0 and never reuse one, for an id names its thread's
// registers (Loc) and its side of every detected flow. Once the next id
// would pass math.MaxInt32, Spawn returns ErrThreadIDs and Rearm records
// it for the next Run to return: ids are refused, never wrapped. Lock ids
// are the immediates of LOCK and UNLOCK, checked when a program is first
// spawned on the machine: one outside int32 fails Spawn with ErrLockID.
type Machine struct {
	Mem     Memory
	Threads []*Thread
	Tracer  Tracer
	Cost    CostModel
	Mode    ExecMode
	// MaxWindow is the number of instructions traced after the outermost
	// critical-section exit (§7.2's MAX, default 128).
	MaxWindow int

	// TotalCycles sums cycle costs across all threads.
	TotalCycles int64

	progs        map[*Program]*progState
	locks        []mlock          // dense lock table, indexed by lock id
	lockSpill    map[int32]*mlock // ids outside [0, lockDenseLimit)
	nonFlow      []bool           // dense non-flow set, indexed by lock id
	nonFlowSpill map[int32]bool
	ring         []*Thread // unhalted threads in spawn order
	rr           int       // round-robin cursor into ring
	nextID       int64     // the id the next thread takes; > MaxInt32 once exhausted
	fault        error     // a program error since Run last returned one

	// Reusable Access emission state: one Access and one Reads backing
	// array, overwritten per traced instruction (see Tracer).
	ac       Access
	readsBuf [3]Loc
}

// NewMachine returns an empty machine with the default cost model in
// direct mode.
func NewMachine() *Machine {
	return &Machine{
		Cost:      DefaultCostModel(),
		MaxWindow: DefaultMaxWindow,
		progs:     make(map[*Program]*progState),
	}
}

// progStateFor returns (predecoding on first use) the machine's execution
// state for prog.
func (m *Machine) progStateFor(prog *Program) (*progState, error) {
	ps := m.progs[prog]
	if ps == nil {
		var err error
		if ps, err = predecode(prog, m.Cost); err != nil {
			return nil, err
		}
		m.progs[prog] = ps
	}
	return ps, nil
}

// ErrThreadIDs is the error of a Spawn or Rearm past the last thread id,
// math.MaxInt32.
var ErrThreadIDs = errors.New("vm: thread ids exhausted: every int32 id has been issued")

// takeID issues the next thread id.
func (m *Machine) takeID() (int32, error) {
	if m.nextID > math.MaxInt32 {
		return 0, ErrThreadIDs
	}
	id := int32(m.nextID)
	m.nextID++
	return id, nil
}

// Spawn creates a thread running prog from the given label.
func (m *Machine) Spawn(prog *Program, label string) (*Thread, error) {
	pc, err := prog.Entry(label)
	if err != nil {
		return nil, err
	}
	ps, err := m.progStateFor(prog)
	if err != nil {
		return nil, err
	}
	id, err := m.takeID()
	if err != nil {
		return nil, err
	}
	t := &Thread{ID: id, Prog: prog, PC: pc, entry: pc, ps: ps, code: ps.code}
	m.Threads = append(m.Threads, t)
	m.ring = append(m.ring, t)
	return t, nil
}

// Rearm starts a new thread at the program and entry point t was spawned
// with, reusing t's storage: a host that runs one short execution after
// another (a queue's push or pop per connection) allocates no Thread and
// no held-lock slice per execution. The new thread is a new identity —
// it takes the next thread id, exactly as Spawn would, because ids are
// never reused — with zeroed registers and cycle count. t must have
// halted and been reaped. Past the last id, t stays halted and the next
// Run returns ErrThreadIDs.
func (m *Machine) Rearm(t *Thread) {
	if !t.halted {
		panic(fmt.Sprintf("vm: Rearm of thread %d, which has not halted", t.ID))
	}
	id, err := m.takeID()
	if err != nil {
		m.fault = err
		return
	}
	*t = Thread{ID: id, Prog: t.Prog, PC: t.entry, entry: t.entry,
		ps: t.ps, code: t.code, heldLocks: t.heldLocks[:0]}
	m.Threads = append(m.Threads, t)
	m.ring = append(m.ring, t)
}

// SetNonFlow marks a lock's critical sections for native execution —
// the optimisation Whodunit applies once a lock's accesses are known not
// to carry transaction flow (§7.2).
func (m *Machine) SetNonFlow(lock int32) {
	if lock >= 0 && lock < lockDenseLimit {
		if int(lock) >= len(m.nonFlow) {
			nf := make([]bool, lock+1)
			copy(nf, m.nonFlow)
			m.nonFlow = nf
		}
		m.nonFlow[lock] = true
		return
	}
	if m.nonFlowSpill == nil {
		m.nonFlowSpill = make(map[int32]bool)
	}
	m.nonFlowSpill[lock] = true
}

// NonFlow reports whether lock has been demoted to native execution.
func (m *Machine) NonFlow(lock int32) bool {
	if lock >= 0 && int(lock) < len(m.nonFlow) {
		return m.nonFlow[lock]
	}
	if lock >= 0 && lock < lockDenseLimit {
		return false
	}
	return m.nonFlowSpill[lock]
}

// Reap removes halted threads so long-running hosts (e.g. the Apache
// model spawning one push/pop execution per connection) do not accumulate
// dead threads. Thread IDs are not reused; the translation cache is
// unaffected. The scheduler's ring holds only unhalted threads and the
// round-robin cursor indexes the ring, so reaping preserves the cursor's
// position among the surviving threads (it was previously reset to 0,
// skewing round-robin fairness after every reap).
func (m *Machine) Reap() {
	live := m.Threads[:0]
	for _, t := range m.Threads {
		if !t.halted {
			live = append(live, t)
		}
	}
	for i := len(live); i < len(m.Threads); i++ {
		m.Threads[i] = nil
	}
	m.Threads = live
}

// ErrDeadlock is returned by Run when unhalted threads exist but none can
// make progress.
var ErrDeadlock = errors.New("vm: deadlock: all live threads blocked")

// ErrStepLimit is returned by Run when maxSteps is exhausted.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// Run interleaves all threads round-robin until every thread halts. A
// thread that faults — unlocks a lock it does not hold — halts, and Run
// returns the fault.
//
// When exactly one thread is runnable — the common case for the
// library's queue push/pop executions — Run executes whole straight-line
// instruction runs on it without re-entering the scheduler between
// instructions; with a single runnable thread this cannot change the
// interleaving.
func (m *Machine) Run(maxSteps int64) error {
	for steps := int64(0); ; {
		if steps >= maxSteps {
			return ErrStepLimit
		}
		if len(m.ring) == 1 {
			t := m.ring[0]
			if t.Blocked() {
				return ErrDeadlock
			}
			steps += m.execRun(t, maxSteps-steps)
			if t.halted {
				m.removeRing(0)
				return m.takeFault()
			}
			continue
		}
		progressed, anyLive := m.Step()
		steps++
		if m.fault != nil {
			return m.takeFault()
		}
		if !anyLive {
			return nil
		}
		if !progressed {
			return ErrDeadlock
		}
	}
}

// takeFault returns the pending fault, if any, and clears it.
func (m *Machine) takeFault() error {
	err := m.fault
	m.fault = nil
	return err
}

// execRun executes up to budget instructions of t (budget ≥ 1, t
// runnable), returning the number executed. It stops early when t halts
// or blocks. Straight-line data-op runs outside traced regions execute
// back to back with no per-instruction regime checks.
func (m *Machine) execRun(t *Thread, budget int64) int64 {
	var done int64
	for done < budget && !t.halted && !t.Blocked() {
		if pc := t.PC; pc >= 0 && pc < len(t.code) && !m.traced(t) {
			// A non-traced thread with no held locks has window == 0
			// (traced would be true otherwise), and a straight-line run
			// contains no LOCK/UNLOCK, so the trace regime cannot change
			// mid-run: execute the whole run at once.
			if n := int64(t.code[pc].runLen); n > 0 {
				if n > budget-done {
					n = budget - done
				}
				m.execStraight(t, int(n))
				done += n
				continue
			}
		}
		m.exec(t)
		done++
	}
	return done
}

// execStraight executes n straight-line data ops starting at t.PC with
// direct costs and no tracing — the direct-threaded inner loop.
func (m *Machine) execStraight(t *Thread, n int) {
	code := t.code
	pc := t.PC
	var cyc int64
	for i := 0; i < n; i++ {
		in := &code[pc]
		cyc += in.cost
		switch in.op {
		case NOP:
		case MOVRR:
			t.Regs[in.rd] = t.Regs[in.rs]
		case MOVI:
			t.Regs[in.rd] = in.imm
		case LOAD:
			t.Regs[in.rd] = m.Mem.Load(uint32(t.Regs[in.rs] + in.off))
		case STORE:
			m.Mem.Store(uint32(t.Regs[in.rd]+in.off), t.Regs[in.rs])
		case STOREI:
			m.Mem.Store(uint32(t.Regs[in.rd]+in.off), in.imm)
		case ADD:
			t.Regs[in.rd] = t.Regs[in.rs] + t.Regs[in.rt]
		case SUB:
			t.Regs[in.rd] = t.Regs[in.rs] - t.Regs[in.rt]
		case ADDI:
			t.Regs[in.rd] = t.Regs[in.rs] + in.imm
		case INCM:
			m.Mem.Add(uint32(t.Regs[in.rd]+in.off), 1)
		case DECM:
			m.Mem.Add(uint32(t.Regs[in.rd]+in.off), -1)
		}
		pc++
	}
	t.PC = pc
	t.Cycles += cyc
	m.TotalCycles += cyc
}

// Step executes one instruction on the next runnable thread (round-robin).
// It reports whether any instruction executed and whether any thread is
// still live (not halted).
func (m *Machine) Step() (progressed, anyLive bool) {
	n := len(m.ring)
	for i := 0; i < n; i++ {
		pos := m.rr + i
		if pos >= n {
			pos -= n
		}
		t := m.ring[pos]
		if t.Blocked() {
			continue
		}
		m.rr = pos + 1
		if m.rr == n {
			m.rr = 0
		}
		m.exec(t)
		if t.halted {
			m.removeRing(pos)
		}
		return true, len(m.ring) > 0
	}
	return false, n > 0
}

// removeRing drops the (halted) thread at ring position pos, keeping the
// round-robin cursor on the thread that would have run next.
func (m *Machine) removeRing(pos int) {
	copy(m.ring[pos:], m.ring[pos+1:])
	m.ring[len(m.ring)-1] = nil
	m.ring = m.ring[:len(m.ring)-1]
	if m.rr > pos {
		m.rr--
	}
	if m.rr >= len(m.ring) {
		m.rr = 0
	}
}

// traced reports whether thread t's next instruction runs under emulation
// (inside a flow-candidate critical section or its post-exit window).
func (m *Machine) traced(t *Thread) bool {
	if m.Mode != ModeEmulateCS {
		return false
	}
	if len(t.heldLocks) > 0 {
		return !m.NonFlow(t.heldLocks[0])
	}
	return t.window > 0
}

// charge accounts the cycle cost of executing instruction pc of t's
// program under the current regime.
func (m *Machine) charge(t *Thread, pc int, emulated bool) {
	var c int64
	if emulated {
		c = m.Cost.Emulate
		if tr := t.ps.translated; !tr[pc] {
			c += m.Cost.Translate
			tr[pc] = true
		}
	} else {
		c = t.code[pc].cost
	}
	t.Cycles += c
	m.TotalCycles += c
}

// lock returns (creating if needed) the lock with the given id. The
// returned pointer is valid only until the next lock call (dense-table
// growth may move entries); callers use it immediately and never retain
// it.
func (m *Machine) lock(id int32) *mlock {
	if id >= 0 && id < lockDenseLimit {
		for i := len(m.locks); i <= int(id); i++ {
			m.locks = append(m.locks, mlock{owner: -1})
		}
		return &m.locks[id]
	}
	l := m.lockSpill[id]
	if l == nil {
		if m.lockSpill == nil {
			m.lockSpill = make(map[int32]*mlock)
		}
		l = &mlock{owner: -1}
		m.lockSpill[id] = l
	}
	return l
}

// exec executes one instruction of t.
func (m *Machine) exec(t *Thread) {
	code := t.code
	if t.PC < 0 || t.PC >= len(code) {
		t.halted = true
		return
	}
	pc := t.PC
	in := &code[pc]

	// Lock operations are handled before generic charging because a LOCK
	// may block (charged only when it completes).
	switch in.op {
	case LOCK:
		m.execLock(t, in, pc)
		return
	case UNLOCK:
		m.execUnlock(t, in, pc)
		return
	}

	emu := m.traced(t)
	inWindow := len(t.heldLocks) == 0 && t.window > 0
	m.charge(t, pc, emu)
	if emu && m.Tracer != nil {
		m.execTraced(t, in, pc)
	} else {
		m.execPlain(t, in)
	}
	// Generic instructions consume window budget when running post-CS.
	if inWindow {
		t.window--
	}
}

func (m *Machine) execLock(t *Thread, in *dinstr, pc int) {
	id := int32(in.imm) // in range: predecode checked it
	l := m.lock(id)
	switch {
	case l.owner == t.ID && t.granted:
		// Our pending acquisition was granted by the releaser.
		t.granted = false
		t.blocked = false
	case l.owner == -1:
		l.owner = t.ID
	default:
		// Block; re-executed once granted.
		t.blocked = true
		l.waiters = append(l.waiters, t)
		return
	}
	t.heldLocks = append(t.heldLocks, id)
	// Entering the outermost critical section cancels any residual
	// window and notifies the tracer.
	if len(t.heldLocks) == 1 {
		t.window = 0
		if m.Tracer != nil && m.Mode == ModeEmulateCS && !m.NonFlow(id) {
			m.Tracer.OnLock(int(t.ID), int(id))
		}
	}
	m.charge(t, pc, m.traced(t))
	t.PC++
}

func (m *Machine) execUnlock(t *Thread, in *dinstr, pc int) {
	id := int32(in.imm) // in range: predecode checked it
	idx := -1
	for i, h := range t.heldLocks {
		if h == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.halted = true
		m.fault = fmt.Errorf("vm: thread %d unlocks %d it does not hold", t.ID, id)
		return
	}
	wasEmu := m.traced(t)
	outermost := idx == 0 && len(t.heldLocks) == 1
	t.heldLocks = append(t.heldLocks[:idx], t.heldLocks[idx+1:]...)
	l := m.lock(id)
	l.owner = -1
	if len(l.waiters) > 0 {
		next := l.waiters[0]
		l.waiters = l.waiters[1:]
		l.owner = next.ID
		next.granted = true
	}
	if outermost && wasEmu {
		t.window = m.MaxWindow
		if m.Tracer != nil {
			m.Tracer.OnUnlock(int(t.ID), int(id))
		}
	}
	m.charge(t, pc, wasEmu)
	t.PC++
}

// execPlain executes one generic instruction with no tracing.
func (m *Machine) execPlain(t *Thread, in *dinstr) {
	switch in.op {
	case NOP:
	case HALT:
		t.halted = true
		return // PC unchanged
	case MOVRR:
		t.Regs[in.rd] = t.Regs[in.rs]
	case MOVI:
		t.Regs[in.rd] = in.imm
	case LOAD:
		t.Regs[in.rd] = m.Mem.Load(uint32(t.Regs[in.rs] + in.off))
	case STORE:
		m.Mem.Store(uint32(t.Regs[in.rd]+in.off), t.Regs[in.rs])
	case STOREI:
		m.Mem.Store(uint32(t.Regs[in.rd]+in.off), in.imm)
	case ADD:
		t.Regs[in.rd] = t.Regs[in.rs] + t.Regs[in.rt]
	case SUB:
		t.Regs[in.rd] = t.Regs[in.rs] - t.Regs[in.rt]
	case ADDI:
		t.Regs[in.rd] = t.Regs[in.rs] + in.imm
	case INCM:
		m.Mem.Add(uint32(t.Regs[in.rd]+in.off), 1)
	case DECM:
		m.Mem.Add(uint32(t.Regs[in.rd]+in.off), -1)
	case JMP:
		t.PC = int(in.target)
		return
	case JEQ, JNE, JLT, JGE:
		if branchTaken(in, t.Regs[in.rs]) {
			t.PC = int(in.target)
			return
		}
	}
	t.PC++
}

// execTraced executes one generic instruction under emulation, emitting
// its Access to the tracer through the machine's reusable buffer.
func (m *Machine) execTraced(t *Thread, in *dinstr, pc int) {
	// Every field of the reused buffer is stored in place — assigning a
	// composite literal would build it in a temporary and copy it over —
	// so the one copy an emission costs is the by-value OnAccess argument.
	ac := &m.ac
	ac.Thread, ac.PC, ac.Instr = t.ID, pc, t.Prog.Code[pc]
	ac.Src, ac.Dst = Loc{}, Loc{}
	if len(t.heldLocks) > 0 {
		ac.InCS, ac.Lock, ac.InWindow = true, t.heldLocks[0], false
	} else {
		ac.InCS, ac.Lock, ac.InWindow = false, 0, t.window > 0
	}
	reads := m.readsBuf[:0]
	emit := true

	switch in.op {
	case NOP:
		emit = false
	case HALT:
		t.halted = true
		return // no emission, PC unchanged
	case MOVRR:
		src := RegLoc(t.ID, in.rs)
		ac.Kind, ac.Src, ac.Dst = AccMove, src, RegLoc(t.ID, in.rd)
		reads = append(reads, src)
		t.Regs[in.rd] = t.Regs[in.rs]
	case MOVI:
		ac.Kind, ac.Dst = AccWrite, RegLoc(t.ID, in.rd)
		t.Regs[in.rd] = in.imm
	case LOAD:
		a := uint32(t.Regs[in.rs] + in.off)
		ac.Kind, ac.Src, ac.Dst = AccMove, MemLoc(a), RegLoc(t.ID, in.rd)
		reads = append(reads, RegLoc(t.ID, in.rs), MemLoc(a))
		t.Regs[in.rd] = m.Mem.Load(a)
	case STORE:
		a := uint32(t.Regs[in.rd] + in.off)
		ac.Kind, ac.Src, ac.Dst = AccMove, RegLoc(t.ID, in.rs), MemLoc(a)
		reads = append(reads, RegLoc(t.ID, in.rd), RegLoc(t.ID, in.rs))
		m.Mem.Store(a, t.Regs[in.rs])
	case STOREI:
		a := uint32(t.Regs[in.rd] + in.off)
		ac.Kind, ac.Dst = AccWrite, MemLoc(a)
		reads = append(reads, RegLoc(t.ID, in.rd))
		m.Mem.Store(a, in.imm)
	case ADD:
		ac.Kind, ac.Dst = AccWrite, RegLoc(t.ID, in.rd)
		reads = append(reads, RegLoc(t.ID, in.rs), RegLoc(t.ID, in.rt))
		t.Regs[in.rd] = t.Regs[in.rs] + t.Regs[in.rt]
	case SUB:
		ac.Kind, ac.Dst = AccWrite, RegLoc(t.ID, in.rd)
		reads = append(reads, RegLoc(t.ID, in.rs), RegLoc(t.ID, in.rt))
		t.Regs[in.rd] = t.Regs[in.rs] - t.Regs[in.rt]
	case ADDI:
		ac.Kind, ac.Dst = AccWrite, RegLoc(t.ID, in.rd)
		reads = append(reads, RegLoc(t.ID, in.rs))
		t.Regs[in.rd] = t.Regs[in.rs] + in.imm
	case INCM:
		a := uint32(t.Regs[in.rd] + in.off)
		ac.Kind, ac.Dst = AccWrite, MemLoc(a)
		reads = append(reads, RegLoc(t.ID, in.rd), MemLoc(a))
		m.Mem.Add(a, 1)
	case DECM:
		a := uint32(t.Regs[in.rd] + in.off)
		ac.Kind, ac.Dst = AccWrite, MemLoc(a)
		reads = append(reads, RegLoc(t.ID, in.rd), MemLoc(a))
		m.Mem.Add(a, -1)
	case JMP:
		t.PC = int(in.target)
		return // no emission
	case JEQ, JNE, JLT, JGE:
		ac.Kind = AccRead
		reads = append(reads, RegLoc(t.ID, in.rs))
		ac.Reads = reads
		m.Tracer.OnAccess(*ac)
		if branchTaken(in, t.Regs[in.rs]) {
			t.PC = int(in.target)
		} else {
			t.PC++
		}
		return
	}
	if emit {
		ac.Reads = reads
		m.Tracer.OnAccess(*ac)
	}
	t.PC++
}

func branchTaken(in *dinstr, v int64) bool {
	switch in.op {
	case JEQ:
		return v == in.imm
	case JNE:
		return v != in.imm
	case JLT:
		return v < in.imm
	case JGE:
		return v >= in.imm
	}
	return false
}
