package vm_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"whodunit/internal/shmflow"
	"whodunit/internal/vm"
)

// fuzzStepLimit bounds each fuzzed run; loops end in vm.ErrStepLimit.
const fuzzStepLimit = 5000

// FuzzAssemble asserts that Assemble on any text returns a program or an
// error and never panics, and that a program it returns spawns, unless a
// lock id is outside int32, and runs on a fresh Machine, in direct and in
// emulated mode, to a halt or an error: one thread per label (at most
// four, in label order), under a step limit.
func FuzzAssemble(f *testing.F) {
	for _, p := range []*vm.Program{
		shmflow.ApachePush, shmflow.ApachePop, shmflow.SharedCounter,
		shmflow.AllocWork, shmflow.MemFree, shmflow.MemAlloc,
		shmflow.ListPush, shmflow.ListPop, shmflow.ListPushNullInit,
		shmflow.QueueMove, shmflow.CrossLockRead,
	} {
		src := source(p)
		back, err := vm.Assemble(p.Name, src)
		if err != nil || !slices.Equal(back.Code, p.Code) {
			f.Fatalf("%s does not reassemble from its source (%v):\n%s", p.Name, err, src)
		}
		f.Add(src)
	}
	f.Add("main:\n\tfrob r1, r2\n\thalt\n")                                                     // an unknown opcode
	f.Add("main:\n\tjmp nowhere\n")                                                             // a missing label
	f.Add("main:\n\tlock 9223372036854775807\n\tunlock 9223372036854775807\n\thalt\n")          // a lock id outside int32
	f.Add("main:\n\tlock 2147483647\n\tunlock 2147483647\n\thalt\n")                            // the largest lock id
	f.Add("main:\n\tmovi r1, -8\n\tstore [r1-1], r1\n\tincm [r1]\n\tload r2, [r1-1]\n\thalt\n") // a negative address
	f.Fuzz(func(t *testing.T, src string) {
		p, err := vm.Assemble("fuzz", src)
		if err != nil {
			return
		}
		labels := make([]string, 0, len(p.Labels))
		for l := range p.Labels {
			labels = append(labels, l)
		}
		slices.Sort(labels)
		if len(labels) > 4 {
			labels = labels[:4]
		}
		for _, mode := range []vm.ExecMode{vm.ModeDirect, vm.ModeEmulateCS} {
			m := vm.NewMachine()
			m.Mode = mode
			m.Tracer = nopTracer{}
			for _, l := range labels {
				if _, err := m.Spawn(p, l); errors.Is(err, vm.ErrLockID) {
					return
				} else if err != nil {
					t.Fatalf("spawn at its own label %q: %v", l, err)
				}
			}
			if err := m.Run(fuzzStepLimit); err != nil {
				continue
			}
			for _, th := range m.Threads {
				if !th.Halted() {
					t.Fatalf("mode %d: Run returned nil with thread %d live at pc %d", mode, th.ID, th.PC)
				}
			}
		}
	})
}

// source writes p back as assembler text: a label line before every
// instruction a label or a jump names, jump targets by label.
func source(p *vm.Program) string {
	names := map[int][]string{}
	for l, pc := range p.Labels {
		names[pc] = append(names[pc], l)
	}
	for _, in := range p.Code {
		switch in.Op {
		case vm.JMP, vm.JEQ, vm.JNE, vm.JLT, vm.JGE:
			if len(names[in.Target]) == 0 {
				names[in.Target] = []string{fmt.Sprintf("L%d", in.Target)}
			}
		}
	}
	var b strings.Builder
	for pc := 0; pc <= len(p.Code); pc++ {
		ls := names[pc]
		slices.Sort(ls)
		for _, l := range ls {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		if pc == len(p.Code) {
			break
		}
		in := p.Code[pc]
		switch in.Op {
		case vm.JMP:
			fmt.Fprintf(&b, "\tjmp %s\n", names[in.Target][0])
		case vm.JEQ, vm.JNE, vm.JLT, vm.JGE:
			fmt.Fprintf(&b, "\t%s r%d, %d, %s\n", in.Op, in.RS, in.Imm, names[in.Target][0])
		default:
			fmt.Fprintf(&b, "\t%s\n", in)
		}
	}
	return b.String()
}

// nopTracer makes a machine in ModeEmulateCS take its tracing path.
type nopTracer struct{}

func (nopTracer) OnAccess(vm.Access) {}
func (nopTracer) OnLock(int, int)    {}
func (nopTracer) OnUnlock(int, int)  {}
