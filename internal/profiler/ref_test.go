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

// TestQuickEntryNamesMatchFreshRendering: a context's key, label and
// prefix string are rendered once, when the stage first sees it, and
// reused by every later window. What each retired window presents must
// equal rendering its entries afresh, as every window once did: one
// entry per (synopsis, prefix) key in the order the window first sampled
// it, carrying the context of that first sample and its Key, its
// prefix's String and its Label. Probes switch among the stage's own
// contexts, contexts of another table whose synopses coincide with the
// stage's (the same dictionary entry, another label), and three prefix
// chains, and windows retire at random.
//
// Mutants this test fails (applied by hand, see CHANGES.md): the label
// of the context the stage saw first reused for another table's
// context, and Retire leaving the window count where it was.
func TestQuickEntryNamesMatchFreshRendering(t *testing.T) {
	chains := []tranctx.Chain{nil, {1}, {2, 3}}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := vclock.NewRNG(seed)
		prof := New("stage", ModeWhodunit)
		foreign := tranctx.NewTable()
		for _, f := range []string{"accept", "parse", "render"} {
			prof.Table.Root().Extend(tranctx.HandlerHop("here", f))
			foreign.Root().Extend(tranctx.HandlerHop("elsewhere", f))
		}
		pr := prof.NewProbe(nil, nil)
		var firsts []TxnCtxt // the window's contexts, at their first sample
		seen := map[string]bool{}
		relabelled := 0
		check := func(s *Snapshot) {
			entries := s.Entries()
			if len(entries) != len(firsts) {
				t.Fatalf("seed %d: %d entries, want %d", seed, len(entries), len(firsts))
			}
			for i, e := range entries {
				tc := firsts[i]
				if e.Ctxt.Local != tc.Local || !e.Ctxt.Prefix.Equal(tc.Prefix) {
					t.Fatalf("seed %d: entry %d is %s, want %s", seed, i, e.Ctxt.Label(), tc.Label())
				}
				if e.Key != tc.Key() || e.Prefix != tc.Prefix.String() || e.Tree.Label != tc.Label() {
					t.Fatalf("seed %d: entry %d names (%q, %q, %q), want (%q, %q, %q)",
						seed, i, e.Key, e.Prefix, e.Tree.Label, tc.Key(), tc.Prefix.String(), tc.Label())
				}
			}
			firsts, seen = firsts[:0], map[string]bool{}
		}
		for op := 0; op < 5000; op++ {
			switch k := rng.Intn(20); {
			case k < 8:
				tab := prof.Table
				if rng.Intn(3) == 0 {
					tab = foreign
				}
				local, _ := tab.Lookup(tranctx.Synopsis(rng.Intn(tab.Size())))
				pr.SetTxn(TxnCtxt{Prefix: chains[rng.Intn(len(chains))], Local: local})
			case k < 19:
				if tc := pr.Txn(); !seen[tc.Key()] {
					seen[tc.Key()] = true
					firsts = append(firsts, tc)
					if tc.Local.Table() == foreign && tc.Local.Synopsis() != 0 {
						relabelled++
					}
				}
				pr.account(DefaultInterval) // one sample, into the tree of pr.Txn()
			default:
				check(prof.Retire())
			}
		}
		check(prof.Retire())
		if relabelled == 0 {
			t.Errorf("seed %d: no window first sampled another table's context", seed)
		}
	}
}
