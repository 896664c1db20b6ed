// Package vm implements the small processor on which Whodunit's shared-
// memory flow detection runs. The paper extracts QEMU's CPU emulator core
// and emulates the instructions of critical sections (§7.2); here the
// "processor" is a compact RISC-style ISA with exactly the operations the
// §3 algorithm dispatches on — register/memory MOVes, immediate stores,
// arithmetic read-modify-writes — plus locks, branches and a tiny
// assembler for writing test programs such as Apache's queue push/pop.
//
// The machine accounts cycles under three execution modes (direct,
// translate+emulate, cached emulation), reproducing Table 3, and supports
// per-lock native fallback for critical sections that are found not to
// carry transaction flow (§7.2's performance optimisation).
package vm

import "fmt"

// Op is an instruction opcode.
type Op uint8

// The instruction set. MOV-family operations (MOVRR, MOVI, LOAD, STORE,
// STOREI) move values between locations; INCM/DECM/ADD/ADDI/SUB modify
// values (non-MOV for the purposes of §3); the rest are control flow and
// synchronisation.
const (
	NOP    Op = iota
	MOVRR     // rd <- rs
	MOVI      // rd <- imm
	LOAD      // rd <- mem[rs+off]
	STORE     // mem[rd+off] <- rs
	STOREI    // mem[rd+off] <- imm
	ADD       // rd <- rs + rt
	SUB       // rd <- rs - rt
	ADDI      // rd <- rs + imm
	INCM      // mem[rd+off] <- mem[rd+off] + 1
	DECM      // mem[rd+off] <- mem[rd+off] - 1
	JMP       // pc <- target
	JEQ       // if rs == imm: pc <- target
	JNE       // if rs != imm: pc <- target
	JLT       // if rs < imm: pc <- target
	JGE       // if rs >= imm: pc <- target
	LOCK      // acquire mutex #imm
	UNLOCK    // release mutex #imm
	HALT      // stop the thread
)

var opNames = map[Op]string{
	NOP: "nop", MOVRR: "mov", MOVI: "movi", LOAD: "load", STORE: "store",
	STOREI: "storei", ADD: "add", SUB: "sub", ADDI: "addi", INCM: "incm",
	DECM: "decm", JMP: "jmp", JEQ: "jeq", JNE: "jne", JLT: "jlt",
	JGE: "jge", LOCK: "lock", UNLOCK: "unlock", HALT: "halt",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumRegs is the number of general-purpose registers per thread.
const NumRegs = 16

// Instr is one decoded instruction.
type Instr struct {
	Op     Op
	RD, RS byte  // destination / source registers
	RT     byte  // second source for ADD/SUB
	Imm    int64 // immediate value or lock id
	Off    int64 // memory offset for LOAD/STORE/STOREI/INCM/DECM
	Target int   // resolved jump target (instruction index)
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case MOVRR:
		return fmt.Sprintf("mov r%d, r%d", in.RD, in.RS)
	case MOVI:
		return fmt.Sprintf("movi r%d, %d", in.RD, in.Imm)
	case LOAD:
		return fmt.Sprintf("load r%d, [r%d%+d]", in.RD, in.RS, in.Off)
	case STORE:
		return fmt.Sprintf("store [r%d%+d], r%d", in.RD, in.Off, in.RS)
	case STOREI:
		return fmt.Sprintf("storei [r%d%+d], %d", in.RD, in.Off, in.Imm)
	case ADD:
		return fmt.Sprintf("add r%d, r%d, r%d", in.RD, in.RS, in.RT)
	case SUB:
		return fmt.Sprintf("sub r%d, r%d, r%d", in.RD, in.RS, in.RT)
	case ADDI:
		return fmt.Sprintf("addi r%d, r%d, %d", in.RD, in.RS, in.Imm)
	case INCM:
		return fmt.Sprintf("incm [r%d%+d]", in.RD, in.Off)
	case DECM:
		return fmt.Sprintf("decm [r%d%+d]", in.RD, in.Off)
	case JMP:
		return fmt.Sprintf("jmp %d", in.Target)
	case JEQ, JNE, JLT, JGE:
		return fmt.Sprintf("%s r%d, %d, %d", in.Op, in.RS, in.Imm, in.Target)
	case LOCK, UNLOCK:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	}
	return in.Op.String()
}

// Program is an assembled instruction sequence with named entry points.
type Program struct {
	Name   string
	Code   []Instr
	Labels map[string]int
}

// Entry returns the instruction index of a label.
func (p *Program) Entry(label string) (int, error) {
	pc, ok := p.Labels[label]
	if !ok {
		return 0, fmt.Errorf("vm: program %q has no label %q", p.Name, label)
	}
	return pc, nil
}

// LocKind distinguishes memory addresses from registers in the complete
// name space of locations where application data resides (§3.2).
type LocKind uint8

const (
	// LocMem is a virtual-address-space location.
	LocMem LocKind = iota
	// LocReg is a per-thread register reg_ti (§3.2 annotates registers
	// with the owning thread to make them unique names).
	LocReg
)

// Loc names a location: a memory word or a (thread, register) pair. It
// is 12 bytes: a thread id is an int32, issued once by the machine and
// refused past MaxInt32, never wrapped (see Machine).
type Loc struct {
	Kind   LocKind
	Addr   uint32 // memory address, or register index
	Thread int32  // owning thread for LocReg
}

// MemLoc names memory address a.
func MemLoc(a uint32) Loc { return Loc{Kind: LocMem, Addr: a} }

// RegLoc names register r of thread tid.
func RegLoc(tid int32, r byte) Loc { return Loc{Kind: LocReg, Addr: uint32(r), Thread: tid} }

func (l Loc) String() string {
	if l.Kind == LocReg {
		return fmt.Sprintf("r%d@t%d", l.Addr, l.Thread)
	}
	return fmt.Sprintf("[%#x]", l.Addr)
}

// AccessKind classifies an instruction's data effect for the tracer.
type AccessKind uint8

const (
	// AccMove is a MOV-family transfer from Src to Dst.
	AccMove AccessKind = iota
	// AccWrite is a non-MOV modification of Dst (immediate-independent
	// value computation: arithmetic, increments, ...). Per §3.2 the
	// destination is associated with the invalid context.
	AccWrite
	// AccRead is an instruction that only reads locations (branches).
	AccRead
)

// Access describes one traced instruction execution. The machine reuses
// one emission buffer for every Access it delivers: the Reads slice
// aliases that buffer and is valid only for the duration of the
// Tracer.OnAccess call — a tracer that wants to keep the read set must
// copy it.
type Access struct {
	Thread   int32
	PC       int
	Instr    Instr
	Kind     AccessKind
	Src, Dst Loc   // valid per Kind (Src only for AccMove)
	Reads    []Loc // every location the instruction read, including
	// address-base registers; consume detection (§7.2) watches these.
	InCS     bool  // executing under at least one held lock
	Lock     int32 // outermost held lock id when InCS
	InWindow bool  // within the post-critical-section window
}

// Tracer observes traced instruction executions; the shmflow package
// implements it. OnAccess is invoked only for instructions executed in
// emulated critical sections and their post-exit windows. The Access is
// delivered by value but its Reads slice aliases a machine-owned buffer
// reused for the next emission; copy it to retain it.
type Tracer interface {
	OnAccess(ac Access)
	// OnLock and OnUnlock bracket critical sections (outermost lock only).
	// Their ids are the machine's int32 thread and lock ids, widened.
	OnLock(thread, lock int)
	OnUnlock(thread, lock int)
}
