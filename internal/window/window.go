// Package window holds the retained-window machinery of the continuous
// profiling service: metadata for fixed virtual-time aggregation windows
// and a bounded ring that retains the most recent retired values while
// fanning each retirement out to subscribers (the /stream SSE feed).
//
// The ring is deliberately generic over its element type — the server
// stores retired *whodunit.Report values, tests store small structs —
// and is the only piece of the serving subsystem that is safe for
// concurrent use: the simulation retires windows from its own goroutine
// while HTTP handlers read retained ones.
package window

import (
	"slices"
	"sync"

	"whodunit/internal/vclock"
)

// Meta identifies one aggregation window: its sequence number (0-based,
// dense) and its [Start, End) span on the virtual clock.
type Meta struct {
	Seq   int64
	Start vclock.Time
	End   vclock.Time
}

// Duration reports the window's virtual span.
func (m Meta) Duration() vclock.Duration { return m.End.Sub(m.Start) }

// Keyed pairs a retired value with its window metadata.
type Keyed[T any] struct {
	Meta Meta
	V    T
}

// Ring retains the last cap retired windows and broadcasts each
// retirement to subscribers. Older windows are evicted in FIFO order;
// Get on an evicted (or not yet retired) sequence number reports a miss.
// All methods are safe for concurrent use.
type Ring[T any] struct {
	mu      sync.Mutex
	entries []Keyed[T] // oldest first, len <= cap
	cap     int
	total   int64 // windows ever appended
	dropped int64 // subscriber deliveries skipped on full buffers
	subs    []*subscriber[T]
	closed  bool
}

type subscriber[T any] struct {
	ch     chan Keyed[T]
	closed bool
}

// NewRing returns a ring retaining up to cap windows.
func NewRing[T any](cap int) *Ring[T] {
	if cap < 1 {
		panic("window: ring capacity must be at least 1")
	}
	return &Ring[T]{cap: cap}
}

// Append retires one window into the ring, evicting the oldest retained
// entry if full, and publishes it to every subscriber. Publication is
// non-blocking: a subscriber whose buffer is full misses the window
// (slow SSE clients drop frames rather than stalling the simulation).
func (r *Ring[T]) Append(m Meta, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		panic("window: append to closed ring")
	}
	if len(r.entries) == r.cap {
		copy(r.entries, r.entries[1:])
		r.entries = r.entries[:r.cap-1]
	}
	kv := Keyed[T]{Meta: m, V: v}
	r.entries = append(r.entries, kv)
	r.total++
	for _, s := range r.subs {
		if s.closed {
			continue
		}
		select {
		case s.ch <- kv:
		default:
			r.dropped++
		}
	}
}

// Dropped reports how many subscriber deliveries were skipped because a
// subscriber's buffer was full — the backpressure ledger: a stalled SSE
// consumer shows up here instead of stalling window retirement.
func (r *Ring[T]) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Get returns the retained window with the given sequence number.
func (r *Ring[T]) Get(seq int64) (Keyed[T], bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.entries {
		if r.entries[i].Meta.Seq == seq {
			return r.entries[i], true
		}
	}
	var zero Keyed[T]
	return zero, false
}

// Latest returns the most recently retired window, if any.
func (r *Ring[T]) Latest() (Keyed[T], bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) == 0 {
		var zero Keyed[T]
		return zero, false
	}
	return r.entries[len(r.entries)-1], true
}

// Entries returns a copy of the retained windows, oldest first.
func (r *Ring[T]) Entries() []Keyed[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Keyed[T], len(r.entries))
	copy(out, r.entries)
	return out
}

// Len reports how many windows are currently retained.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Total reports how many windows have ever been appended.
func (r *Ring[T]) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Subscribers reports how many subscriptions are attached.
func (r *Ring[T]) Subscribers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Subscribe registers a listener for future retirements, delivered on a
// channel with the given buffer. The returned cancel function detaches
// the subscription and closes the channel; it is idempotent. Close on
// the ring also closes every subscriber channel.
func (r *Ring[T]) Subscribe(buf int) (<-chan Keyed[T], func()) {
	if buf < 1 {
		buf = 1
	}
	s := &subscriber[T]{ch: make(chan Keyed[T], buf)}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		close(s.ch)
		return s.ch, func() {}
	}
	r.subs = append(r.subs, s)
	r.mu.Unlock()
	cancel := func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if s.closed {
			return
		}
		s.closed = true
		close(s.ch)
		// slices.Delete zeroes the vacated tail slot, so the backing
		// array does not pin the channel and its buffered windows.
		if i := slices.Index(r.subs, s); i >= 0 {
			r.subs = slices.Delete(r.subs, i, i+1)
		}
	}
	return s.ch, cancel
}

// Close marks the ring complete: every subscriber channel is closed
// (signalling end-of-stream to SSE clients) and further Appends panic.
// Retained entries remain readable.
func (r *Ring[T]) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for _, s := range r.subs {
		if !s.closed {
			s.closed = true
			close(s.ch)
		}
	}
	r.subs = nil
}
