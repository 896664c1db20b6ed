package vm

import (
	"errors"
	"fmt"
	"math"
)

// ErrLockID is the error of a Spawn whose program locks or unlocks a lock
// id outside int32.
var ErrLockID = errors.New("lock id outside int32")

// dinstr is one predecoded instruction: operands unpacked from the
// assembler's Instr, the native cycle cost baked in from the machine's
// cost model, and the length of the straight-line run starting here — so
// the interpreter's charge/exec path touches no map and recomputes
// nothing per dispatch (the direct-threaded predecoding of the
// ICOOOLPS-style interpreter optimisation literature).
type dinstr struct {
	op         Op
	rd, rs, rt byte
	imm, off   int64
	target     int32
	cost       int64 // direct-execution cycles for this op (CostModel baked in)
	runLen     int32 // straight-line data-op run length starting at this pc
}

// progState is a machine's per-program execution state: the predecoded
// code and the per-pc translation bitmap (Table 3's translation cache).
// It is created once per (machine, program) pair on first Spawn and
// shared by every thread of that program on that machine.
type progState struct {
	code       []dinstr
	translated []bool
}

// straightLine reports whether op can neither transfer control, block,
// halt, nor change the thread's critical-section/tracing state — the ops
// a single-runnable thread may execute back to back with no scheduler or
// trace-regime re-checks in between.
func straightLine(op Op) bool {
	switch op {
	case JMP, JEQ, JNE, JLT, JGE, LOCK, UNLOCK, HALT:
		return false
	}
	return true
}

// predecode lowers a program into its dense internal form under the
// given cost model. Cost must not change after a program is first
// spawned on a machine; the per-op direct cycle cost is baked in here.
// A LOCK or UNLOCK whose lock id is outside int32 is an error.
func predecode(p *Program, cost CostModel) (*progState, error) {
	code := make([]dinstr, len(p.Code))
	for i, in := range p.Code {
		if (in.Op == LOCK || in.Op == UNLOCK) && (in.Imm < math.MinInt32 || in.Imm > math.MaxInt32) {
			return nil, fmt.Errorf("vm: program %q: %v at pc %d: %w", p.Name, in, i, ErrLockID)
		}
		code[i] = dinstr{
			op: in.Op, rd: in.RD, rs: in.RS, rt: in.RT,
			imm: in.Imm, off: in.Off, target: int32(in.Target),
			cost: cost.direct(in.Op),
		}
	}
	// Basic-block run lengths, computed backwards: runLen counts the
	// maximal stretch of straight-line data ops starting at each pc.
	run := int32(0)
	for i := len(code) - 1; i >= 0; i-- {
		if straightLine(code[i].op) {
			run++
		} else {
			run = 0
		}
		code[i].runLen = run
	}
	return &progState{code: code, translated: make([]bool, len(code))}, nil
}
