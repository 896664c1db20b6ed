package window

import (
	"sync"
	"testing"

	"whodunit/internal/vclock"
)

func meta(seq int64) Meta {
	start := vclock.Time(0).Add(vclock.Duration(seq) * vclock.Second)
	return Meta{Seq: seq, Start: start, End: start.Add(vclock.Second)}
}

func TestMetaDuration(t *testing.T) {
	m := meta(3)
	if got := m.Duration(); got != vclock.Second {
		t.Fatalf("Duration = %v, want %v", got, vclock.Second)
	}
}

func TestRingAppendGetEvict(t *testing.T) {
	r := NewRing[string](3)
	if _, ok := r.Latest(); ok {
		t.Fatal("Latest on empty ring reported a value")
	}
	for i := int64(0); i < 5; i++ {
		r.Append(meta(i), "w")
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	// 0 and 1 evicted, 2..4 retained.
	for i := int64(0); i < 2; i++ {
		if _, ok := r.Get(i); ok {
			t.Fatalf("Get(%d) found an evicted window", i)
		}
	}
	for i := int64(2); i < 5; i++ {
		kv, ok := r.Get(i)
		if !ok || kv.Meta.Seq != i {
			t.Fatalf("Get(%d) = %+v, %v", i, kv, ok)
		}
	}
	latest, ok := r.Latest()
	if !ok || latest.Meta.Seq != 4 {
		t.Fatalf("Latest = %+v, %v", latest, ok)
	}
	entries := r.Entries()
	if len(entries) != 3 || entries[0].Meta.Seq != 2 || entries[2].Meta.Seq != 4 {
		t.Fatalf("Entries = %+v", entries)
	}
}

func TestRingBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing[int](0)
}

func TestSubscribeDeliversAndCancels(t *testing.T) {
	r := NewRing[int](4)
	ch, cancel := r.Subscribe(8)
	r.Append(meta(0), 10)
	r.Append(meta(1), 11)
	for i := int64(0); i < 2; i++ {
		kv := <-ch
		if kv.Meta.Seq != i || kv.V != int(10+i) {
			t.Fatalf("got %+v, want seq %d", kv, i)
		}
	}
	cancel()
	cancel() // idempotent
	if _, open := <-ch; open {
		t.Fatal("channel still open after cancel")
	}
	r.Append(meta(2), 12) // must not panic or deliver to cancelled sub
}

// TestCancelClearsVacatedSlot checks that a cancelled subscriber leaves
// no pointer behind in the backing array of the subscriber list,
// whichever position it held: a stale slot would pin its channel and the
// windows buffered in it.
func TestCancelClearsVacatedSlot(t *testing.T) {
	for _, victim := range []int{0, 1, 2} {
		r := NewRing[int](4)
		cancels := make([]func(), 3)
		for i := range cancels {
			_, cancels[i] = r.Subscribe(1)
		}
		cancels[victim]()
		if got := r.Subscribers(); got != 2 {
			t.Fatalf("victim %d: %d subscribers after cancel, want 2", victim, got)
		}
		if vacated := r.subs[:3][2]; vacated != nil {
			t.Fatalf("victim %d: vacated slot still holds %p", victim, vacated)
		}
		for i, c := range cancels {
			if i != victim {
				c()
			}
		}
		if got := r.Subscribers(); got != 0 {
			t.Fatalf("victim %d: %d subscribers after cancelling all, want 0", victim, got)
		}
		if tail := r.subs[:3]; tail[0] != nil || tail[1] != nil || tail[2] != nil {
			t.Fatalf("victim %d: backing array still holds %v", victim, tail)
		}
	}
}

func TestSubscribeDropsWhenFull(t *testing.T) {
	r := NewRing[int](8)
	ch, cancel := r.Subscribe(1)
	defer cancel()
	r.Append(meta(0), 0)
	r.Append(meta(1), 1) // buffer full: dropped
	kv := <-ch
	if kv.Meta.Seq != 0 {
		t.Fatalf("first delivery seq = %d, want 0", kv.Meta.Seq)
	}
	select {
	case kv := <-ch:
		t.Fatalf("unexpected second delivery %+v", kv)
	default:
	}
}

// TestDroppedLedgerUnderStalledConsumer pins the backpressure contract:
// a subscriber that never drains (a stalled SSE client) must not stall
// Append — every skipped delivery lands in the Dropped ledger instead —
// and a healthy subscriber on the same ring still sees every window.
func TestDroppedLedgerUnderStalledConsumer(t *testing.T) {
	r := NewRing[int](4)
	stalled, cancelStalled := r.Subscribe(1)
	defer cancelStalled()
	healthy, cancelHealthy := r.Subscribe(64)
	defer cancelHealthy()

	const windows = 20
	for i := int64(0); i < windows; i++ {
		r.Append(meta(i), int(i)) // must never block
	}
	// The stalled subscriber's 1-slot buffer took window 0; the other 19
	// deliveries were skipped and counted.
	if got := r.Dropped(); got != windows-1 {
		t.Fatalf("Dropped = %d, want %d", got, windows-1)
	}
	if kv := <-stalled; kv.Meta.Seq != 0 {
		t.Fatalf("stalled subscriber's single delivery seq = %d, want 0", kv.Meta.Seq)
	}
	// The healthy subscriber saw the full dense series: drops are
	// per-subscriber verdicts, not a shared fate.
	for i := int64(0); i < windows; i++ {
		kv := <-healthy
		if kv.Meta.Seq != i {
			t.Fatalf("healthy subscriber delivery %d has seq %d", i, kv.Meta.Seq)
		}
	}
	// A cancelled subscriber stops counting: it is detached, not stalled.
	cancelStalled()
	before := r.Dropped()
	r.Append(meta(windows), windows)
	if got := r.Dropped(); got != before {
		t.Fatalf("Dropped grew to %d after cancel (was %d); detached subscribers must not count", got, before)
	}
	if r.Total() != windows+1 {
		t.Fatalf("Total = %d; Append must survive stalled and cancelled subscribers alike", r.Total())
	}
}

func TestCloseEndsStreams(t *testing.T) {
	r := NewRing[int](2)
	ch, _ := r.Subscribe(1)
	r.Close()
	r.Close() // idempotent
	if _, open := <-ch; open {
		t.Fatal("subscriber channel open after Close")
	}
	// Subscribing after close yields an already-closed channel.
	ch2, cancel2 := r.Subscribe(1)
	cancel2()
	if _, open := <-ch2; open {
		t.Fatal("post-close subscription channel open")
	}
	// Retained entries stay readable after close.
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append after Close did not panic")
		}
	}()
	r.Append(meta(0), 1)
}

// TestConcurrentFanOut hammers the ring from one producer and several
// consumer/cancel goroutines; run with -race this is the concurrency
// contract check for the serving path.
func TestConcurrentFanOut(t *testing.T) {
	r := NewRing[int](16)
	const windows = 200
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		ch, cancel := r.Subscribe(windows)
		wg.Add(1)
		go func(ch <-chan Keyed[int], cancel func()) {
			defer wg.Done()
			last := int64(-1)
			for kv := range ch {
				if kv.Meta.Seq <= last {
					t.Errorf("out-of-order delivery: %d after %d", kv.Meta.Seq, last)
					break
				}
				last = kv.Meta.Seq
			}
			cancel()
		}(ch, cancel)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < windows; i++ {
			r.Append(meta(i), int(i))
			if i%3 == 0 {
				r.Latest()
				r.Entries()
			}
		}
		r.Close()
	}()
	wg.Wait()
	if r.Total() != windows {
		t.Fatalf("Total = %d, want %d", r.Total(), windows)
	}
}
