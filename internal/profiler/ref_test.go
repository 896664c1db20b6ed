package profiler

// The differential oracle for the CallCtxt memo: refCallCtxt is CallCtxt
// with no memo at all — join the call path and Extend, every time — which
// is what the memo (once a hash map on each probe, now one trie on the
// profiler indexed by the base context's synopsis, then by FrameID) must
// be indistinguishable from. Extend interns, so "indistinguishable" is
// pointer equality.

import (
	"fmt"
	"testing"

	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

func refCallCtxt(pr *Probe) TxnCtxt {
	local := pr.txn.Local
	if len(pr.stack) > 0 {
		local = local.Extend(tranctx.CallHop(pr.prof.Stage, pr.Stack()...))
	}
	return TxnCtxt{Prefix: pr.txn.Prefix, Local: local}
}

// TestQuickCallCtxtMatchesUncached: several probes of one stage move
// their call stacks and transaction contexts at random and ask for their
// send-point context; each answer must be the very context an uncached
// computation returns, whichever probe filled the memo slot, before and
// after window retirement (contexts are stage-lifetime: Retire must not
// disturb the memo, and need not). Contexts of another stage's table,
// whose synopses coincide numerically with this stage's, are adopted too:
// they index the same slots and must not be mistaken for their
// namesakes.
//
// Mutants this test fails (applied by hand, see CHANGES.md): the memo
// consulted for a context of another table (no Table check), a trie walk
// that skips the outermost frame, and one that indexes every frame's
// children at 0.
func TestQuickCallCtxtMatchesUncached(t *testing.T) {
	ops := 30_000
	if testing.Short() {
		ops = 6_000
	}
	frames := []string{"accept", "parse", "lookup", "render", "reply"}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := vclock.NewRNG(seed)
			prof := New("stage", ModeWhodunit)
			foreign := tranctx.NewTable()
			type probe struct {
				pr   *Probe
				toks []int
			}
			probes := make([]*probe, 4)
			for i := range probes {
				probes[i] = &probe{pr: prof.NewProbe(nil, nil)}
			}
			filledBy := map[*tranctx.Ctxt]*Probe{} // send-point context -> the probe that first asked for it
			var shared, afterRetire, foreignBase, retires int
			for op := 0; op < ops; op++ {
				p := probes[rng.Intn(len(probes))]
				switch k := rng.Intn(100); {
				case k < 30:
					if len(p.toks) > 0 && (len(p.toks) > 3 || rng.Intn(2) == 0) {
						p.pr.Exit(p.toks[len(p.toks)-1])
						p.toks = p.toks[:len(p.toks)-1]
					} else {
						p.toks = append(p.toks, p.pr.Enter(frames[rng.Intn(len(frames))]))
					}
				case k < 45:
					// Any context the stage has interned, or one of the other
					// table with a synopsis this stage has issued too.
					tab := prof.Table
					if rng.Intn(4) == 0 {
						tab = foreign
						foreign.Root().Extend(tranctx.HandlerHop("elsewhere", frames[rng.Intn(len(frames))])).
							Extend(tranctx.HandlerHop("elsewhere", frames[rng.Intn(len(frames))]))
					}
					local, _ := tab.Lookup(tranctx.Synopsis(rng.Intn(min(tab.Size(), prof.Table.Size()))))
					p.pr.SetTxn(TxnCtxt{Prefix: tranctx.Chain{tranctx.Synopsis(rng.Intn(3))}, Local: local})
				case k < 46:
					prof.Retire()
					retires++
				default:
					base := p.pr.Txn().Local
					got, want := p.pr.CallCtxt(), refCallCtxt(p.pr)
					if got.Local != want.Local || !got.Prefix.Equal(want.Prefix) {
						t.Fatalf("op %d: CallCtxt %s (%p), uncached %s (%p)", op, got.Label(), got.Local, want.Label(), want.Local)
					}
					if first, ok := filledBy[got.Local]; !ok {
						filledBy[got.Local] = p.pr
					} else if first != p.pr {
						shared++
						if retires > 0 {
							afterRetire++
						}
					}
					if base.Table() == foreign && len(p.toks) > 0 {
						foreignBase++
					}
					if prof.CallCtxtSlots() > prof.Table.Size() {
						t.Fatalf("op %d: %d memo slots for a table of %d contexts", op, prof.CallCtxtSlots(), prof.Table.Size())
					}
				}
			}
			if shared == 0 || afterRetire == 0 || foreignBase == 0 {
				t.Errorf("the generator missed a case it is here for: %d answers from a slot another probe filled (%d after a Retire), %d extensions of another table's context",
					shared, afterRetire, foreignBase)
			}
			t.Logf("%d contexts, %d memo slots, %d answers from a slot another probe filled (%d after a Retire), %d extensions of another table's context",
				prof.Table.Size(), prof.CallCtxtSlots(), shared, afterRetire, foreignBase)
		})
	}
}
