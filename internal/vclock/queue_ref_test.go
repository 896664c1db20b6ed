package vclock

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// refHeap is the event queue this package used until the radix queue
// replaced it: the hand-rolled 4-ary min-heap ordered by (when, seq),
// push and pop kept verbatim. It is the executable old definition the new
// queue is compared with on generated instances (the method of Zave,
// "How to Make Chord Correct"); nothing outside this file uses it.
type refHeap struct {
	events eventHeap
	seq    uint64
}

type refEvent struct {
	when Time
	seq  uint64
}

type eventHeap []refEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (s *refHeap) push(e refEvent) {
	e.seq = s.seq
	s.seq++
	h := append(s.events, e)
	// Sift up.
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 4
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.events = h
}

func (s *refHeap) pop() refEvent {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = refEvent{} // release the fn closure (and payload) for GC
	h = h[:n]
	// Sift down.
	for i := 0; ; {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h.less(k, c) {
				c = k
			}
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.events = h
	return top
}

// queuePair drives a Sim's event queue and the reference heap with the
// same operations. A pushed event carries its push index as the wake
// payload, so the two pop sequences are compared as (when, push index)
// pairs — exactly the (when, seq) order the heap defined.
type queuePair struct {
	t    *testing.T
	s    *Sim
	ref  refHeap
	pops int

	// How often the generator reached the cases it claims to reach.
	halfDrained int // pushes at last with bucket 0 partly consumed
	pastLast    int // pushes at a current instant that is later than last
	fullest     int // most events one bucket other than 0 held
}

func (p *queuePair) push(at Time) {
	q := &p.s.q
	switch {
	case at == q.min[0] && q.head > 0:
		p.halfDrained++
	case at == p.s.now && at != q.min[0]:
		p.pastLast++
	}
	p.s.push(event{when: at, v: p.ref.seq})
	p.ref.push(refEvent{when: at})
}

// pop checks the O(1) earliest-time read and then the popped event
// against the heap's, and advances the clock the way dispatch does.
func (p *queuePair) pop() {
	want := p.ref.events[0].when
	if got := p.s.q.next; got != want {
		p.t.Fatalf("pop %d: next = %d, heap root is at %d", p.pops, got, want)
	}
	e, r := p.s.pop(), p.ref.pop()
	if e.when != r.when || e.v.(uint64) != r.seq {
		p.t.Fatalf("pop %d: got (when %d, push %d), heap pops (when %d, push %d)", p.pops, e.when, e.v, r.when, r.seq)
	}
	p.s.now = e.when
	p.pops++
	if p.s.q.n != len(p.ref.events) {
		p.t.Fatalf("pop %d: %d pending, heap holds %d", p.pops, p.s.q.n, len(p.ref.events))
	}
}

// TestQuickEventQueueMatchesHeap compares the radix queue with the heap
// it replaced on generated operation sequences, a million and more per
// seed: the popped (when, push index) sequence must be the heap's
// exactly, and the earliest-time read must equal the heap's root before
// every pop. The generator aims at the queue's edges: pushes at the
// current instant while bucket 0 is half drained, 0–2 ns ties,
// exponential µs–ms delays, 10 s think-time sleepers, pushes made after
// an inline sleep has moved the clock past the last pop, bursts that put
// more than 10^4 events into one bucket, and — last, because the clock
// cannot come back — times within one bucket boundary of the end of
// representable time, which is where Group's final epoch runs.
//
// Mutants this test fails (applied by hand, see CHANGES.md): pop's rebase
// walking its bucket in reverse, bucket 0 popping its newest event
// instead of its oldest, a bucket minimum that a later, earlier push does
// not lower, bucket 0's compaction copying from one slot too far, a
// bucket that stays marked same-instant after a different time joins it,
// and next left stale by a rebase.
func TestQuickEventQueueMatchesHeap(t *testing.T) {
	ops := 1_000_000
	if testing.Short() {
		ops = 100_000
	}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := NewRNG(seed)
			p := &queuePair{t: t, s: New()}
			s := p.s
			// The depth the generator steers towards changes as it goes, so
			// one run visits a shallow queue, tpcw's and a deep one.
			depths := []int{4, 200, 10_000, 0, 1_000}
			for op := 0; op < ops; op++ {
				depth := depths[op*len(depths)/ops]
				if n := s.q.n; n > 0 && (n > 2*depth || rng.Intn(2*depth+2) < n) {
					p.pop()
					continue
				}
				switch k := rng.Intn(100); {
				case k < 30:
					p.push(s.now)
				case k < 40:
					p.push(s.now + Time(rng.Intn(3)))
				case k < 75:
					p.push(s.now.Add(rng.Exp(200 * Microsecond)))
				case k < 90:
					p.push(s.now.Add(10*Second + rng.Exp(Second)))
				case k < 97:
					// The inline-sleep transition (Coro.SleepUntil): the clock moves to a point
					// strictly before the earliest pending event without a
					// pop, so later pushes at "now" are not at last.
					if s.q.n > 0 {
						if gap := s.q.next - s.now; gap > 1 {
							s.now += Time(rng.Intn(int(gap)))
						}
					}
					p.push(s.now)
				default:
					p.push(s.now + 1<<24)
				}
				if rng.Intn(ops/8) == 0 {
					// One bucket takes a burst: same high bits, random low.
					for i := 0; i < 12_000; i++ {
						p.push(s.now + 1<<30 + Time(rng.Intn(1<<20)))
					}
					for b := 1; b < len(s.q.bucket); b++ {
						p.fullest = max(p.fullest, len(s.q.bucket[b]))
					}
				}
			}
			// The end of time: a few events in the last buckets, then the
			// drain, with same-instant and tie pushes continuing on the
			// way (clamped: there is no later instant to overflow into).
			const end = Time(math.MaxInt64)
			for i := 0; i < 64; i++ {
				p.push(end - Time(rng.Intn(1<<uint(i%20))))
			}
			for s.q.n > 0 {
				p.pop()
				if rng.Intn(4) == 0 {
					p.push(s.now + min(Time(rng.Intn(3)), end-s.now))
				}
			}
			if s.q.mask != 0 || s.q.head != 0 {
				t.Fatalf("drained queue has mask %#x, head %d", s.q.mask, s.q.head)
			}
			c := s.Counters()
			if c.Scheduled != uint64(p.pops) || c.Pending != 0 {
				t.Fatalf("scheduled %d, popped %d, pending %d", c.Scheduled, p.pops, c.Pending)
			}
			if p.halfDrained < 1000 || p.pastLast < 1000 || c.Moved < 1000 || (p.fullest <= 10_000 && !testing.Short()) {
				t.Errorf("the generator missed a case it is here for: %d pushes into a half-drained bucket 0, %d at an instant past last, %d events moved by rebases, fullest bucket %d",
					p.halfDrained, p.pastLast, c.Moved, p.fullest)
			}
			t.Logf("%d events: %d into a half-drained bucket 0, %d at an instant past last, %d moved by rebases, pending high-water %d, fullest bucket %d",
				c.Scheduled, p.halfDrained, p.pastLast, c.Moved, c.PendingMax, p.fullest)
		})
	}
}

// TestEventQueueSteadyStateZeroAllocs: once the arrays have reached the
// capacity a population needs, pushing and popping at that depth
// allocates nothing — the property the heap's single slice had, kept
// with 64 of them.
func TestEventQueueSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := newHoldModel(200)
	round := func() {
		for i := 0; i < 1000; i++ {
			m.step()
		}
	}
	for i := 0; i < 100; i++ {
		round() // every sleeper has woken a few hundred times: capacities have settled
	}
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Errorf("steady-state push/pop allocates %.2f times per 1000 events, want 0", avg)
	}
}

// TestEventIs40BytesAndKindsBoxFree pins the event's size — every push,
// pop and rebase copies one — and that what used to be fields of their
// own costs nothing in the payload: a callback is pointer-shaped and the
// start and kill markers are zero-size, so scheduling and dispatching
// one of each allocates nothing.
func TestEventIs40BytesAndKindsBoxFree(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Errorf("event is %d bytes, want 40 (when, t, q, v)", got)
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := New()
	calls := 0
	fn := func() { calls++ }
	th := &Thread{Name: "t", sim: s, started: true, exited: true} // start skipped, kill a no-op: only the events are exercised
	round := func() {
		s.At(s.now, fn)
		s.push(event{when: s.now, t: th, v: startMark{}})
		s.push(event{when: s.now, t: th, v: killMark{}})
		s.Run()
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("a callback, a start and a kill allocate %.2f times, want 0", avg)
	}
	if c := s.Counters(); calls != 102 || c.Callbacks != 102 || c.Skipped != 102 || c.Kills != 102 {
		t.Errorf("%d calls; counters %+v; want 102 callbacks, skipped starts and kills", calls, c)
	}
}

// TestEventQueueRetainedMemory pins the bound eventQueue's comment
// states: arrays are kept, and what a queue retains once drained is a
// small multiple of the most events it ever held — here 10^5 think-time
// sleepers that each wake and sleep again about four times, so arrays
// have wandered between buckets before the drain.
func TestEventQueueRetainedMemory(t *testing.T) {
	const sleepers = 100_000
	m := newHoldModel(sleepers)
	s := m.s
	for i := 0; i < 4*sleepers; i++ {
		m.step()
	}
	for s.q.n > 0 {
		s.now = s.pop().when
	}
	slots := 0
	for b := range s.q.bucket {
		slots += cap(s.q.bucket[b])
	}
	hw := int(s.Counters().PendingMax)
	if hw != sleepers+6 {
		t.Fatalf("pending high-water %d, want %d", hw, sleepers+6)
	}
	if slots > 4*hw {
		t.Errorf("drained queue retains %d event slots, more than 4x its high-water mark of %d", slots, hw)
	}
	t.Logf("retained %d slots for a high-water of %d (%.2fx)", slots, hw, float64(slots)/float64(hw))
}

// TestPushInThePastPanics: an event below the current time is refused
// where it is scheduled, with both times in the message.
func TestPushInThePastPanics(t *testing.T) {
	s := New()
	s.At(Time(5*Millisecond), func() {})
	s.Run()
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "scheduled in the past") || !strings.Contains(msg, Time(2*Millisecond).String()) || !strings.Contains(msg, s.Now().String()) {
			t.Fatalf("panic %q does not name %v and %v", msg, Time(2*Millisecond), s.Now())
		}
	}()
	s.wakeAt(Time(2*Millisecond), nil, nil)
	t.Fatal("a wake scheduled 3 ms in the past was accepted")
}
