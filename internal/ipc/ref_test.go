package ipc

// The differential oracle for the endpoint's sent dictionary: refEndpoint
// is the hash-keyed dictionary Endpoint had before it was indexed by the
// chain's last synopsis — map[Chain.Hash][]sentEntry, unordered buckets
// scanned with Equal — kept, test-only, as the executable old
// definition. TestQuickEndpointMatchesRef drives both with one generated
// message history and demands the same classification, the same restored
// context and the same send records.

import (
	"fmt"
	"reflect"
	"testing"

	"whodunit/internal/profiler"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

type refEndpoint struct {
	sent  map[uint64][]sentEntry // Chain.Hash -> candidate entries
	sends []SendRecord
}

func newRefEndpoint() *refEndpoint { return &refEndpoint{sent: make(map[uint64][]sentEntry)} }

func (e *refEndpoint) lookupSent(ch tranctx.Chain) (profiler.TxnCtxt, bool) {
	bucket := e.sent[ch.Hash()]
	for i := range bucket {
		if bucket[i].chain.Equal(ch) {
			return bucket[i].ctxt, true
		}
	}
	return profiler.TxnCtxt{}, false
}

func (e *refEndpoint) Send(pr *profiler.Probe, data any) Msg {
	at := pr.CallCtxt()
	last := at.Local.Synopsis()
	h := at.Prefix.HashWith(last)
	bucket := e.sent[h]
	for i := range bucket {
		if bucket[i].chain.EqualWith(at.Prefix, last) {
			bucket[i].ctxt = pr.Txn() // latest send of a chain wins
			return Msg{Chain: bucket[i].chain, Data: data}
		}
	}
	chain := make(tranctx.Chain, 0, len(at.Prefix)+1)
	chain = append(chain, at.Prefix...)
	chain = append(chain, last)
	e.sent[h] = append(bucket, sentEntry{chain: chain, ctxt: pr.Txn()})
	e.sends = append(e.sends, SendRecord{Chain: chain.String(), FromKey: pr.Txn().Key(), FromName: pr.Txn().Label()})
	return Msg{Chain: chain, Data: data}
}

func (e *refEndpoint) Recv(pr *profiler.Probe, msg Msg) Kind {
	for k := len(msg.Chain) - 1; k >= 1; k-- {
		if saved, ok := e.lookupSent(msg.Chain[:k]); ok {
			pr.SetTxn(saved)
			return Response
		}
	}
	pr.SetTxn(profiler.TxnCtxt{Prefix: msg.Chain, Local: pr.Profiler().Table.Root()})
	return Request
}

// refStage is one stage of the generated history: a profiler, and the two
// endpoints under comparison, each behind its own probe of that profiler.
// Both probes share the stage's context table and CallCtxt memo, so a
// context either side restores is the same pointer when they agree.
type refStage struct {
	prof       *profiler.Profiler
	dense      *Endpoint
	ref        *refEndpoint
	prD, prR   *profiler.Probe
	toks       []int // open frames, the same on both probes
	sentChains []tranctx.Chain
}

func (st *refStage) each(f func(pr *profiler.Probe)) { f(st.prD); f(st.prR) }

// TestQuickEndpointMatchesRef: two stages whose tables both issue
// synopses 0, 1, 2, ... — so every synopsis of one is numerically a
// synopsis of the other — exchange generated messages. The generator
// aims at what a slot-per-synopsis table could get wrong where a hash
// bucket could not: several upstream prefixes sending from one local
// context (one slot, many chains), re-sends of a chain from a different
// context (the latest wins), responses whose longest sent proper prefix
// is anywhere from 1 to n-1 synopses, the exact sent chain coming back
// (a request: the prefix must be proper), foreign chains that end in one
// of the receiver's own synopses, and synopses far beyond the table.
// Chains run from 1 to 70 synopses, a quarter of the adopted prefixes 58
// to 67 long, so the length mask Recv walks is exercised on both sides of
// its last bit: responses whose sent prefix is 63 synopses or longer
// (every such length shares bit 63), and responses that extend two sent
// chains at once, below the bit and under it — the longer must win.
//
// Mutants this test fails (applied by hand, see CHANGES.md): lookupSent
// answering with the nearest entry of its slot without the equality
// result, lookupSent without its bound check, Send doing the same, Send
// not overwriting the stored context on a re-send, Send appending a new
// chain instead of inserting it in order, CompareWith ignoring
// length; and of the length mask: Send noting len(prefix) where the
// chain's own length belongs, lenBit wrapping round instead of saturating
// at 63, and sentBelow skipping a length above 63, ignoring bit 63,
// answering with the shortest length first, or admitting the whole chain
// as its own prefix. (sentBelow dropping bit 62 once the walk down from a
// long chain reaches it needs an endpoint that never sent 63 or more:
// TestRecvAcrossBit63.)
func TestQuickEndpointMatchesRef(t *testing.T) {
	ops := 40_000
	if testing.Short() {
		ops = 8_000
	}
	frames := []string{"accept", "parse", "lookup", "render"}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := vclock.NewRNG(seed)
			var stages [2]*refStage
			for i := range stages {
				prof := profiler.New(fmt.Sprint("stage", i), profiler.ModeWhodunit)
				stages[i] = &refStage{prof: prof, dense: NewEndpoint(prof.Stage), ref: newRefEndpoint(),
					prD: prof.NewProbe(nil, nil), prR: prof.NewProbe(nil, nil)}
			}
			var responses [chainLenMax]int
			var sharedSlot, resends, exact, foreignHit, beyond int
			var deep, nested, nestedDeep int // responses to a chain of 63+, extending two sent chains, both of them 63+

			randomChain := func() tranctx.Chain {
				n := 1 + rng.Intn(3)
				if rng.Intn(4) == 0 {
					n = 58 + rng.Intn(10)
				}
				ch := make(tranctx.Chain, n)
				for i := range ch {
					ch[i] = tranctx.Synopsis(rng.Intn(12))
				}
				return ch
			}
			for op := 0; op < ops; op++ {
				st := stages[rng.Intn(2)]
				switch k := rng.Intn(100); {
				case k < 15: // adopt a context: a few prefixes over a few locals
					var prefix tranctx.Chain
					if rng.Intn(4) > 0 {
						prefix = randomChain()
					}
					// Any context of the stage, a send point's own included:
					// sent from again with an empty stack, that one re-sends
					// a known chain from a different context.
					local, _ := st.prof.Table.Lookup(tranctx.Synopsis(rng.Intn(st.prof.Table.Size())))
					if rng.Intn(3) == 0 {
						local = st.prof.Table.Root().Extend(tranctx.HandlerHop(st.prof.Stage, frames[rng.Intn(len(frames))]))
					}
					st.each(func(pr *profiler.Probe) { pr.SetTxn(profiler.TxnCtxt{Prefix: prefix, Local: local}) })
				case k < 30: // move the call stack
					if len(st.toks) > 0 && (len(st.toks) > 2 || rng.Intn(2) == 0) {
						tok := st.toks[len(st.toks)-1]
						st.toks = st.toks[:len(st.toks)-1]
						st.each(func(pr *profiler.Probe) { pr.Exit(tok) })
					} else {
						name := frames[rng.Intn(len(frames))]
						st.toks = append(st.toks, st.prD.Enter(name))
						st.prR.Enter(name)
					}
				case k < 60: // send
					slots, known := st.dense.Slots(), st.dense.Distinct()
					md, mr := st.dense.Send(st.prD, nil), st.ref.Send(st.prR, nil)
					if !md.Chain.Equal(mr.Chain) {
						t.Fatalf("op %d: sent chain %v, reference %v", op, md.Chain, mr.Chain)
					}
					last := int(md.Chain[len(md.Chain)-1])
					switch {
					case st.dense.Distinct() == known:
						resends++
					case last < slots && len(st.dense.sent[last]) > 1:
						sharedSlot++
					}
					if st.dense.Slots() > st.prof.Table.Size() {
						t.Fatalf("op %d: %d slots for a table of %d contexts", op, st.dense.Slots(), st.prof.Table.Size())
					}
					st.sentChains = append(st.sentChains, md.Chain)
				default: // receive
					var ch tranctx.Chain
					peer := stages[0]
					if peer == st {
						peer = stages[1]
					}
					switch from := rng.Intn(10); {
					case from < 3 && len(peer.sentChains) > 0: // the peer's request, or its reply to one of ours
						ch = peer.sentChains[rng.Intn(len(peer.sentChains))]
					case from < 7 && len(st.sentChains) > 0: // our own chain, grown downstream — or not grown
						own := st.sentChains[rng.Intn(len(st.sentChains))]
						ch = append(tranctx.Chain{}, own...)
						for n := rng.Intn(3); n > 0 && len(ch) < chainLenMax; n-- {
							ch = append(ch, tranctx.Synopsis(rng.Intn(12)))
						}
						if len(ch) == len(own) {
							exact++
						}
					case from < 9: // foreign, ending wherever
						ch = randomChain()
					default: // far beyond any table; or nothing at all
						ch = tranctx.Chain{0xffffffff, tranctx.Synopsis(rng.Intn(4)), 0xffffffff}[:rng.Intn(4)]
						beyond++
					}
					if len(ch) >= chainLenMax { // an adopted prefix grows by one on the next send
						ch = ch[:chainLenMax-1]
					}
					slots := st.dense.Slots()
					kd, kr := st.dense.Recv(st.prD, Msg{Chain: ch}), st.ref.Recv(st.prR, Msg{Chain: ch})
					if kd != kr {
						t.Fatalf("op %d: chain %v classified %v, reference %v", op, ch, kd, kr)
					}
					if st.dense.Slots() != slots {
						t.Fatalf("op %d: receiving %v grew the table from %d to %d slots", op, ch, slots, st.dense.Slots())
					}
					if kd == Response {
						matched := 0
						for k := len(ch) - 1; k >= 1; k-- {
							if _, ok := st.ref.lookupSent(ch[:k]); !ok {
								continue
							}
							switch matched++; {
							case matched == 1:
								responses[k]++
								if k >= 63 {
									deep++
								}
							case matched == 2:
								nested++
								if k >= 63 {
									nestedDeep++
								}
							}
						}
					} else {
						for _, s := range ch[:max(len(ch)-1, 0)] {
							if int(s) < slots && len(st.dense.sent[s]) > 0 {
								foreignHit++ // a proper prefix indexed a slot holding other chains
								break
							}
						}
					}
				}
				d, r := st.prD.Txn(), st.prR.Txn()
				if d.Local != r.Local || !d.Prefix.Equal(r.Prefix) {
					t.Fatalf("op %d: context %s (local %p), reference %s (local %p)", op, d.Label(), d.Local, r.Label(), r.Local)
				}
			}
			for _, st := range stages {
				if !reflect.DeepEqual(st.dense.Sends(), st.ref.sends) {
					t.Fatalf("%s: send records differ from the reference's", st.prof.Stage)
				}
			}
			if responses[1] == 0 || responses[2] == 0 || responses[3] == 0 || responses[62] == 0 || deep == 0 || nested == 0 || nestedDeep == 0 ||
				sharedSlot == 0 || resends == 0 || exact == 0 || foreignHit == 0 || beyond == 0 {
				t.Errorf("the generator missed a case it is here for: responses by prefix length %v (%d to 63 or longer, %d with a shorter sent prefix too, %d of those 63 or longer), %d chains into an occupied slot, %d re-sends, %d exact chains back, %d foreign chains into an occupied slot, %d beyond the table",
					responses, deep, nested, nestedDeep, sharedSlot, resends, exact, foreignHit, beyond)
			}
			t.Logf("responses by prefix length %v (%d to 63 or longer, %d with a shorter sent prefix too, %d of those 63 or longer), %d chains into an occupied slot, %d re-sends, %d exact chains back, %d foreign chains into an occupied slot, %d beyond the table",
				responses, deep, nested, nestedDeep, sharedSlot, resends, exact, foreignHit, beyond)
		})
	}
}

// chainLenMax bounds the generated chains (70 synopses): ping-pong would
// otherwise grow them by one synopsis per hop.
const chainLenMax = 71
