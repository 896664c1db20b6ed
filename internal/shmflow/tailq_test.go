package shmflow

import (
	"testing"

	"whodunit/internal/vm"
)

// §3.3.2 verifies the algorithm against FreeBSD sys/queue.h structures.
// This file covers the TAILQ (doubly-linked tail queue) shape: insertion
// at the tail maintains both next pointers and a tail pointer, and
// removal from the head rewires both directions — more pointer traffic
// inside the critical section than the SLIST case, all of which must
// propagate contexts correctly without spurious flows.

const (
	tqHead = 0x5000 // [tqHead] = first element, [tqHead+1] = last element
	tqLock = 6
)

// TailqInsertTail inserts the element at r8 (payload in r4) at the tail.
var TailqInsertTail = vm.MustAssemble("tailq_insert_tail", `
	insert:
		lock 6
		store  [r8+0], r4    ; elem->data = v (produce)
		storei [r8+1], 0     ; elem->next = NULL
		load   r3, [r1+1]    ; r3 = head->last
		store  [r8+2], r3    ; elem->prev = last
		jeq    r3, 0, first
		store  [r3+1], r8    ; last->next = elem
		jmp    done
	first:
		store  [r1+0], r8    ; head->first = elem
	done:
		store  [r1+1], r8    ; head->last = elem
		unlock 6
		halt
`)

// TailqRemoveHead removes the first element, consuming its payload after
// the critical section. Payload lands in r4.
var TailqRemoveHead = vm.MustAssemble("tailq_remove_head", `
	remove:
		lock 6
		load  r8, [r1+0]     ; r8 = first
		jeq   r8, 0, empty
		load  r3, [r8+1]     ; r3 = first->next
		store [r1+0], r3     ; head->first = next
		jne   r3, 0, fix
		storei [r1+1], 0     ; list now empty: last = NULL
		jmp   get
	fix:
		storei [r3+2], 0     ; next->prev = NULL
	get:
		load  r4, [r8+0]     ; r4 = elem->data
		unlock 6
		store [r9], r4       ; use payload (consume)
		halt
	empty:
		movi  r4, 0
		unlock 6
		store [r9], r4
		halt
`)

func TestTailqFlowDetected(t *testing.T) { eachTracker(t, testTailqFlowDetected) }

func testTailqFlowDetected(t *testing.T, newRig func() *rig) {
	r := newRig()
	r.spawn(t, TailqInsertTail, "insert", 61, map[byte]int64{1: tqHead, 4: 111, 8: 0x5100})
	r.run(t)
	r.spawn(t, TailqInsertTail, "insert", 62, map[byte]int64{1: tqHead, 4: 222, 8: 0x5200})
	r.run(t)
	c1 := r.spawn(t, TailqRemoveHead, "remove", 0, map[byte]int64{1: tqHead, 9: 0x8000})
	r.run(t)
	c2 := r.spawn(t, TailqRemoveHead, "remove", 0, map[byte]int64{1: tqHead, 9: 0x8100})
	r.run(t)

	// FIFO semantics: first consumer gets the first producer's payload.
	if c1.Regs[4] != 111 || c2.Regs[4] != 222 {
		t.Fatalf("payloads: c1=%d c2=%d, want 111/222", c1.Regs[4], c2.Regs[4])
	}
	toks := map[int32]Token{}
	for _, f := range r.tr.Flows() {
		toks[f.Consumer] = f.Token
	}
	if toks[c1.ID] != 61 || toks[c2.ID] != 62 {
		t.Fatalf("tokens: %v, want c1<-61 c2<-62 (flows: %v)", toks, r.tr.Flows())
	}
	if r.tr.NonFlow(tqLock) {
		t.Fatal("tailq lock wrongly demoted")
	}
}

func TestTailqEmptyRemoveNoFlow(t *testing.T) { eachTracker(t, testTailqEmptyRemoveNoFlow) }

func testTailqEmptyRemoveNoFlow(t *testing.T, newRig func() *rig) {
	r := newRig()
	r.spawn(t, TailqInsertTail, "insert", 61, map[byte]int64{1: tqHead, 4: 111, 8: 0x5100})
	r.run(t)
	r.spawn(t, TailqRemoveHead, "remove", 0, map[byte]int64{1: tqHead, 9: 0x8000})
	r.run(t)
	// Queue now empty; the next remove reads NULL pointers only.
	c := r.spawn(t, TailqRemoveHead, "remove", 0, map[byte]int64{1: tqHead, 9: 0x8100})
	r.run(t)
	for _, f := range r.tr.Flows() {
		if f.Consumer == c.ID {
			t.Fatalf("empty remove produced flow: %v", f)
		}
	}
	if c.Regs[4] != 0 {
		t.Fatalf("empty remove payload = %d", c.Regs[4])
	}
}

func TestTailqInterleavedProducersDistinctTokens(t *testing.T) {
	eachTracker(t, testTailqInterleavedProducersDistinctTokens)
}

func testTailqInterleavedProducersDistinctTokens(t *testing.T, newRig func() *rig) {
	// Two different producers, two consumers: each consumer must pick up
	// the context of the producer whose element it dequeued, even though
	// the elements share head/tail pointer words.
	r := newRig()
	r.spawn(t, TailqInsertTail, "insert", 71, map[byte]int64{1: tqHead, 4: 1, 8: 0x5100})
	r.spawn(t, TailqInsertTail, "insert", 72, map[byte]int64{1: tqHead, 4: 2, 8: 0x5200})
	r.run(t)
	c1 := r.spawn(t, TailqRemoveHead, "remove", 0, map[byte]int64{1: tqHead, 9: 0x8000})
	r.run(t)
	c2 := r.spawn(t, TailqRemoveHead, "remove", 0, map[byte]int64{1: tqHead, 9: 0x8100})
	r.run(t)
	got := map[int32]Token{}
	for _, f := range r.tr.Flows() {
		got[f.Consumer] = f.Token
	}
	// Round-robin interleaving means either producer may have inserted
	// first; but each consumer's token must match the payload's producer.
	want := map[int64]Token{1: 71, 2: 72}
	if got[c1.ID] != want[c1.Regs[4]] || got[c2.ID] != want[c2.Regs[4]] {
		t.Fatalf("token/payload mismatch: c1 got tok %d payload %d; c2 tok %d payload %d",
			got[c1.ID], c1.Regs[4], got[c2.ID], c2.Regs[4])
	}
}
