package ipc

// White-box tests of the endpoint's chain dictionary: the sorted,
// equality-checked buckets, one per last synopsis, behind Send's intern
// table and Recv's longest-proper-prefix response matching. These plant
// entries in the table directly to drive the shared-slot paths: a chain
// of another stage filed where one of ours would be.

import (
	"slices"
	"testing"

	"whodunit/internal/profiler"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// plant files entries in the slot of last synopsis s — in the slot's
// sorted order, whatever their own last synopsis — growing the table to
// reach it and noting the chain's length as Send would.
func plant(e *Endpoint, s tranctx.Synopsis, entries ...sentEntry) {
	for len(e.sent) <= int(s) {
		e.sent = append(e.sent, nil)
	}
	for _, en := range entries {
		n := len(en.chain) - 1
		i, _ := find(e.sent[s], en.chain[:n], en.chain[n])
		e.sent[s] = slices.Insert(e.sent[s], i, en)
		e.lens |= lenBit(len(en.chain))
	}
}

// planted returns the slot's entry for an exact chain.
func planted(t *testing.T, e *Endpoint, s tranctx.Synopsis, ch tranctx.Chain) *sentEntry {
	t.Helper()
	n := len(ch) - 1
	i, ok := find(e.sent[s], ch[:n], ch[n])
	if !ok {
		t.Fatalf("chain %v is not in slot %d", ch, s)
	}
	return &e.sent[s][i]
}

// withProbe runs body on a live simulator thread with a fresh probe.
func withProbe(t *testing.T, body func(pr *profiler.Probe, prof *profiler.Profiler)) {
	t.Helper()
	prof := profiler.New("dict", profiler.ModeWhodunit)
	s := vclock.New()
	cpu := s.NewCPU("cpu", 1)
	s.Go("t", func(th *vclock.Thread) {
		body(prof.NewProbe(th, cpu), prof)
	})
	s.Run()
	s.Shutdown()
}

// TestLookupSentChecksEquality: a bucket holding a colliding entry (same
// bucket, different chain) must be resolved by chain equality, never by
// bucket position.
func TestLookupSentChecksEquality(t *testing.T) {
	e := NewEndpoint("dict")
	want := tranctx.Chain{1, 2}
	collider := tranctx.Chain{3, 4} // different chain, planted in want's bucket
	plant(e, 2,
		sentEntry{chain: collider, ctxt: profiler.TxnCtxt{Prefix: collider}},
		sentEntry{chain: want, ctxt: profiler.TxnCtxt{Prefix: want}})
	got, ok := e.lookupSent(want)
	if !ok {
		t.Fatal("lookupSent missed a chain present in its bucket")
	}
	if !got.Prefix.Equal(want) {
		t.Fatalf("lookupSent returned the colliding entry's context %v", got.Prefix)
	}
	// The collider sits in the wrong bucket for its own last synopsis:
	// looking it up goes through its real bucket — here beyond the table
	// — and misses: equality never spans buckets.
	if _, ok := e.lookupSent(collider); ok {
		t.Fatal("lookupSent found a chain filed under a foreign bucket")
	}
	if _, ok := e.lookupSent(tranctx.Chain{9, 9}); ok {
		t.Fatal("lookupSent matched a never-sent chain")
	}
}

// TestSendInternsAndLatestWins: re-sending a chain whose entry already
// sits in a (colliding) bucket returns the stored chain without a new
// allocation or SendRecord, and overwrites the stored context — the
// latest send of a chain wins.
func TestSendInternsAndLatestWins(t *testing.T) {
	withProbe(t, func(pr *profiler.Probe, prof *profiler.Profiler) {
		e := NewEndpoint("dict")
		exit := pr.Enter("path_a")
		defer func() { pr.Exit(exit) }()

		// Materialise the exact chain Send will build for this context
		// and plant it behind a colliding entry.
		at := pr.CallCtxt()
		stored := append(append(tranctx.Chain{}, at.Prefix...), at.Local.Synopsis())
		collider := tranctx.Chain{0xdead, 0xbeef}
		sentinel := profiler.TxnCtxt{Prefix: tranctx.Chain{0x5e117}}
		slot := stored[len(stored)-1]
		plant(e, slot,
			sentEntry{chain: collider, ctxt: profiler.TxnCtxt{Prefix: collider}},
			sentEntry{chain: stored, ctxt: sentinel})

		msg := e.Send(pr, nil)
		if &msg.Chain[0] != &stored[0] {
			t.Error("Send materialised a fresh chain instead of interning the stored one")
		}
		if len(e.sends) != 0 {
			t.Errorf("Send recorded %d SendRecords for an already-known chain", len(e.sends))
		}
		entry := planted(t, e, slot, stored)
		if entry.ctxt.Prefix.Equal(sentinel.Prefix) {
			t.Error("Send did not overwrite the stored context (latest send must win)")
		}
		if entry.ctxt.Key() != pr.Txn().Key() {
			t.Errorf("stored context %q, want the probe's %q", entry.ctxt.Key(), pr.Txn().Key())
		}
		// The colliding neighbour is untouched.
		if got := planted(t, e, slot, collider); !got.ctxt.Prefix.Equal(collider) {
			t.Error("Send disturbed the colliding bucket neighbour")
		}

		// A genuinely new chain (fresh call path) appends entry + record.
		func() {
			defer pr.Exit(pr.Enter("path_b"))
			e.Send(pr, nil)
		}()
		if len(e.sends) != 1 {
			t.Errorf("new chain recorded %d SendRecords, want 1", len(e.sends))
		}
	})
}

// TestRecvLongestProperPrefix: a response chain matches the LONGEST
// proper prefix this endpoint sent; an exact match is not a proper
// prefix and classifies as a request.
func TestRecvLongestProperPrefix(t *testing.T) {
	withProbe(t, func(pr *profiler.Probe, prof *profiler.Profiler) {
		e := NewEndpoint("dict")
		root := prof.Table.Root()
		short := tranctx.Chain{10}
		long := tranctx.Chain{10, 20}
		ctxtShort := profiler.TxnCtxt{Prefix: tranctx.Chain{111}, Local: root}
		ctxtLong := profiler.TxnCtxt{Prefix: tranctx.Chain{222}, Local: root}
		plant(e, 10, sentEntry{chain: short, ctxt: ctxtShort})
		plant(e, 20, sentEntry{chain: long, ctxt: ctxtLong})

		if kind := e.Recv(pr, Msg{Chain: tranctx.Chain{10, 20, 30}}); kind != Response {
			t.Fatalf("chain extending a sent chain classified %v, want response", kind)
		}
		if !pr.Txn().Prefix.Equal(ctxtLong.Prefix) {
			t.Fatalf("restored %v, want the longest prefix's context %v", pr.Txn().Prefix, ctxtLong.Prefix)
		}

		if kind := e.Recv(pr, Msg{Chain: tranctx.Chain{10, 99}}); kind != Response {
			t.Fatal("chain extending only the short sent chain did not classify as response")
		}
		if !pr.Txn().Prefix.Equal(ctxtShort.Prefix) {
			t.Fatalf("restored %v, want the short prefix's context %v", pr.Txn().Prefix, ctxtShort.Prefix)
		}

		// Exactly the sent chain: no PROPER prefix matches — a request
		// that adopts the incoming chain as its context prefix.
		if kind := e.Recv(pr, Msg{Chain: short}); kind != Request {
			t.Fatal("exact sent chain classified as a response")
		}
		if !pr.Txn().Prefix.Equal(short) {
			t.Fatalf("request adopted prefix %v, want %v", pr.Txn().Prefix, short)
		}

		// A chain sharing no sent prefix is a plain request.
		foreign := tranctx.Chain{77, 88}
		if kind := e.Recv(pr, Msg{Chain: foreign}); kind != Request {
			t.Fatal("foreign chain classified as a response")
		}
		if !pr.Txn().Prefix.Equal(foreign) {
			t.Fatalf("request adopted prefix %v, want %v", pr.Txn().Prefix, foreign)
		}
	})
}

// TestRecvAcrossBit63: the length mask's last bit stands for every
// length from 63 up, so a long incoming chain is tried length by length
// down to 63 and then by the bits below — a sent chain of 62 synopses is
// found under a chain of 70 whether or not anything longer was ever
// sent, and a sent chain of 66 wins over it when both are prefixes.
func TestRecvAcrossBit63(t *testing.T) {
	withProbe(t, func(pr *profiler.Probe, prof *profiler.Profiler) {
		e := NewEndpoint("dict")
		root := prof.Table.Root()
		incoming := make(tranctx.Chain, 70)
		for i := range incoming {
			incoming[i] = tranctx.Synopsis(i + 1)
		}
		ctxt62 := profiler.TxnCtxt{Prefix: tranctx.Chain{62}, Local: root}
		ctxt66 := profiler.TxnCtxt{Prefix: tranctx.Chain{66}, Local: root}
		recv := func(ch tranctx.Chain, want profiler.TxnCtxt) {
			t.Helper()
			if kind := e.Recv(pr, Msg{Chain: ch}); kind != Response {
				t.Fatalf("chain of %d classified %v, want response", len(ch), kind)
			}
			if !pr.Txn().Prefix.Equal(want.Prefix) {
				t.Fatalf("chain of %d restored %v, want %v", len(ch), pr.Txn().Prefix, want.Prefix)
			}
		}

		plant(e, incoming[61], sentEntry{chain: incoming[:62], ctxt: ctxt62})
		recv(incoming, ctxt62) // nothing of 63 or longer sent: bits below 63 only
		recv(incoming[:63], ctxt62)

		plant(e, incoming[65], sentEntry{chain: incoming[:66], ctxt: ctxt66})
		recv(incoming, ctxt66)      // 69 … 66 tried in turn
		recv(incoming[:66], ctxt62) // 66 itself is not a proper prefix; 65 … 63 miss, then bit 62
		if kind := e.Recv(pr, Msg{Chain: incoming[:62]}); kind != Request {
			t.Fatal("the exact sent chain of 62 classified as a response")
		}
	})
}
