package vclock

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"runtime/debug"
	"slices"
)

// Sim is a deterministic discrete-event simulator. It owns the virtual
// clock and schedules simulated threads. Create one with New, start threads
// with Go, and drive the simulation with Run or RunUntil.
//
// A Sim is not safe for concurrent use from multiple host goroutines; all
// interaction must happen either from the goroutine that calls Run or from
// inside simulated threads.
//
// Every free-form thread (Sim.Go) is a runtime coroutine (iter.Pull), so
// exactly one of {the RunUntil caller, one simulated thread} executes at
// a time and control moves by coroutine switch, never through the Go
// scheduler. A thread that blocks runs the dispatch loop itself, on its
// own stack: callbacks, queue deliveries, run-to-completion frames and
// its own wake-up cost no switch at all. Only when the loop reaches
// another free-form thread's wake does the blocker yield to the RunUntil
// loop, which switches to that thread: two coroutine switches per thread
// switch, none per event. Event order is a function of the event queue
// alone: whoever dispatches runs the same pop-earliest loop over the same
// queue.
type Sim struct {
	now     Time
	seq     uint64   // events scheduled so far (Counters.Scheduled)
	count   Counters // see Counters; Scheduled and Pending are filled on read
	live    int      // threads started and not yet exited
	nextID  int
	threads map[int]*Thread

	running bool        // inside RunUntil
	stop    func() bool // RunUntil's stop predicate, nil when absent
	engine  EngineKind  // how GoCoro threads execute (snapshot of DefaultEngine)

	cur      *Thread // free-form thread whose body is executing (set by run and park); nil in dispatcher context
	handoff  *Thread // thread whose wake the dispatcher reached; RunUntil switches to it
	stepping *Thread // run-to-completion thread whose frames are executing (set by stepCoro); nil otherwise

	crash *Crash // first captured panic; halts dispatch

	horizon Time        // RunBefore's bound, read by reachedHorizon
	atBound func() bool // s.reachedHorizon, bound once: RunBefore allocates nothing

	q eventQueue // last: its 2 KB of bucket headers stay off the cache lines above
}

// poison is the panic that unwinds a thread stopped by Kill or Shutdown:
// it is recovered in the thread's coroutine function, so the thread's
// deferred functions run.
type poison struct{}

// Crash records the first panic that escaped a simulated thread's body
// or a scheduler callback. Dispatch halts at the crash — no further
// event runs — so the failure point is deterministic: with a fixed seed
// the same crash happens at the same virtual time with the same events
// already dispatched, every run.
type Crash struct {
	Thread string // crashing thread's name, or "(scheduler)" for a callback
	At     Time   // virtual time of the crash
	Value  any    // the panic value
	Stack  []byte // goroutine stack at the panic site
}

// Error renders the crash; Crash satisfies error so supervisors can
// return it.
func (c *Crash) Error() string {
	return fmt.Sprintf("vclock: %s crashed at %v: %v", c.Thread, c.At, c.Value)
}

// event is one entry of the pending-event set. Its kind is read off the
// fields that are set: q non-nil delivers v to q; t nil runs the callback
// (a func()) riding in v; t non-nil wakes t with payload v, unless v is
// one of the two markers below. It is 40 bytes, and every push, pop and
// rebase copies it, so a kind gets no field of its own.
type event struct {
	when Time
	t    *Thread // thread to wake, start or kill
	q    *Queue  // queue to deliver v to in dispatcher context
	v    any     // wake payload (nil for plain wakes), queue item, callback, or marker
}

// startMark and killMark are the payloads that make a thread's event its
// start or its death instead of a wake. Zero-size values box without
// allocating, and no queue item can be one: the types are unexported.
type (
	startMark struct{}
	killMark  struct{}
)

// eventQueue is the pending-event set: a monotone radix queue (Ahuja,
// Mehlhorn, Orlin, Tarjan 1990). A discrete-event kernel never schedules
// before the time of its last pop, and that is all the order a priority
// queue needs to stop comparing: an event waits in bucket
// bits.Len64(when XOR last), where last — kept in min[0] — is the time
// of the most recent pop. Bucket 0 therefore holds exactly the events at
// last and hands them out in push order with no search. When it is empty
// the lowest occupied bucket (one TrailingZeros64 of mask) holds the
// earliest events, and pop rebases it: last becomes the bucket's cached
// minimum, and its events are appended, in order, to the strictly lower
// buckets their new distance to last selects. A far sleeper is touched
// once per bit its distance loses, never once per near event that passes
// under it.
//
// The pop order is the old heap's (when, push sequence) order by
// construction, with no stored sequence number: two events with equal
// when always share a bucket, every bucket is FIFO, and every move is a
// stable append. (container/heap stays out for the reason it always did:
// boxing an event costs two allocations on the Probe.Compute path.)
//
// Memory: an event occupies one slot of one array, and the 64 arrays are
// never released, so steady state allocates nothing. They wander — a
// same-instant bucket trades arrays with bucket 0 instead of being copied
// — and each grows to at most twice the most events one bucket ever held
// (four times in bucket 0, which reclaims its consumed prefix only once
// that is half the array). A drained queue therefore retains a constant
// multiple of its high-water mark: 64 x 4 in the worst case, under 4 for
// a think-time population (TestEventQueueRetainedMemory).
type eventQueue struct {
	next   Time     // earliest pending event time; the end of time when empty
	mask   uint64   // bit b set: bucket b is not empty
	same   uint64   // bit b set: every event in bucket b is at min[b]
	n      int      // pending events
	head   int      // consumed prefix of bucket 0
	min    [65]Time // earliest when in bucket b; min[0] is last, min[64] the end of time
	bucket [64][]event
}

// endOfTime is what an empty queue reports as its earliest pending time:
// a sleep to any instant short of it would be the next event, and no
// horizon lies past it.
const endOfTime = Time(math.MaxInt64)

// earliest recomputes next after a pop: last while bucket 0 holds more,
// else the lowest occupied bucket's minimum, else (mask 0) min[64].
func (q *eventQueue) earliest() Time { return q.min[bits.TrailingZeros64(q.mask)] }

// file returns the bucket an event at `when` belongs in — the one its
// distance from last selects — having noted the event in the bucket's
// mask bits and minimum; the caller appends it. (It takes the time, not
// the event: copying 40 bytes into an inlined call is what a shallow
// queue would notice.)
func (q *eventQueue) file(when Time) int {
	b := bits.Len64(uint64(when ^ q.min[0]))
	if bit := uint64(1) << b; q.mask&bit == 0 {
		q.mask |= bit
		q.same |= bit
		q.min[b] = when
	} else if when != q.min[b] {
		q.same &^= bit
		q.min[b] = min(q.min[b], when)
	}
	return b
}

func (s *Sim) push(e event) {
	if e.when < s.now {
		// Checked here, with the offending caller still on the stack: an
		// event below last would be filed in the wrong bucket silently.
		panic(fmt.Sprintf("vclock: event scheduled in the past: %v < %v", e.when, s.now))
	}
	q := &s.q
	s.seq++
	if e.when == s.now {
		s.count.SameInstant++
	}
	if b := q.bucket[0]; e.when == q.min[0] && len(b) == cap(b) && q.head > 0 && 2*q.head >= len(b) {
		// Bucket 0 is full and at least half consumed: reclaim the prefix
		// instead of growing, so a long same-instant exchange stays in
		// one array.
		n := copy(b, b[q.head:])
		clear(b[n:])
		q.bucket[0], q.head = b[:n], 0
	}
	b := q.file(e.when)
	q.bucket[b] = append(q.bucket[b], e)
	q.next = min(q.next, e.when)
	if q.n++; uint64(q.n) > s.count.PendingMax {
		s.count.PendingMax = uint64(q.n)
	}
}

func (s *Sim) pop() (e event) {
	q := &s.q
	q.n--
	if q.mask&1 == 0 {
		// Rebase the lowest occupied bucket onto its own minimum.
		b := bits.TrailingZeros64(q.mask)
		src := q.bucket[b]
		q.mask &^= 1 << b
		q.min[0] = q.min[b]
		if q.same>>b&1 != 0 {
			// Every event in it is at the new last — one event, a tick
			// many threads share, a barrier's deliveries: it becomes
			// bucket 0 as it stands, and the empty array takes its place.
			q.bucket[0], q.bucket[b] = src, q.bucket[0]
			q.mask |= 1
		} else {
			// The first event at the new last leaves now; the rest move
			// down, in order.
			first := -1
			for i := range src {
				if first < 0 && src[i].when == q.min[0] {
					first = i
					continue
				}
				to := q.file(src[i].when)
				q.bucket[to] = append(q.bucket[to], src[i])
			}
			e = src[first]
			clear(src)
			q.bucket[b] = src[:0]
			s.count.Moved += uint64(len(src) - 1)
			q.next = q.earliest()
			return e
		}
	}
	b0 := q.bucket[0]
	e = b0[q.head]
	b0[q.head] = event{} // release the payload (or callback) for GC
	if q.head++; q.head == len(b0) {
		q.bucket[0], q.head = b0[:0], 0
		q.mask &^= 1
	}
	q.next = q.earliest()
	return e
}

func (s *Sim) schedule(at Time, t *Thread) { s.push(event{when: at, t: t}) }

// New returns an empty simulation with the clock at zero.
func New() *Sim {
	s := &Sim{threads: make(map[int]*Thread), engine: DefaultEngine}
	s.q.next, s.q.min[64] = endOfTime, endOfTime
	// Every bucket starts with room for sixteen events, all of it carved
	// from one allocation: a run whose queue stays shallow then allocates
	// for its events once, as it did for the heap's one slice, not a few
	// times in each bucket it touches.
	const room = 16
	arr := make([]event, len(s.q.bucket)*room)
	for b := range s.q.bucket {
		s.q.bucket[b] = arr[b*room : b*room : (b+1)*room]
	}
	return s
}

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run in scheduler context at virtual time `at`
// (or immediately if `at` is in the past). The callback must not block on
// any vclock primitive; it may wake threads by putting items on queues.
func (s *Sim) At(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.push(event{when: at, v: fn})
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d Duration, fn func()) { s.At(s.now.Add(d), fn) }

// Every schedules fn to run in scheduler context every d of virtual time,
// first at now+d. Successive ticks land at exact multiples — the next
// tick is computed from the previous tick's nominal time, never from the
// clock, so the series cannot drift even if fn itself advances wall
// time. The series self-reschedules for the life of the simulation, so a
// Sim with an Every never runs out of events: drive it with
// RunUntil/RunFor, not Run. This is the window-tick primitive of the
// continuous profiling service.
func (s *Sim) Every(d Duration, fn func()) {
	if d <= 0 {
		panic("vclock: Every needs a positive period")
	}
	next := s.now.Add(d)
	var tick func()
	tick = func() {
		fn()
		next = next.Add(d)
		s.At(next, tick)
	}
	s.At(next, tick)
}

// Thread is a simulated thread of execution. A Thread may only call its
// blocking methods (Sleep, Compute, Get, Lock, ...) from inside its own
// body function; a call from anywhere else panics.
type Thread struct {
	ID   int
	Name string

	sim     *Sim
	body    func(*Thread)
	coro    *Coro // the thread's resumable program (GoCoro threads, both engines)
	rtc     bool  // run-to-completion: stepped inline by the dispatcher, no coroutine
	started bool
	exited  bool
	dead    bool   // marked by Kill; pending events for it are skipped
	waitGen uint64 // bumped per queue wait; guards stale timeout wakes

	co *pull // the thread's coroutine, made at its start event; nil for rtc threads

	// Data is an arbitrary per-thread payload. The profiler attaches its
	// per-thread probe here so that libraries handed only a *Thread can
	// reach the probe without a package cycle.
	Data any
}

// pull is a free-form thread's coroutine (iter.Pull) and the slot its
// wakes are delivered through. It is its own allocation so that
// run-to-completion threads, which exist by the hundred thousand, do not
// carry the fields.
type pull struct {
	next  func() (struct{}, bool) // RunUntil: run the body until it blocks or finishes
	stop  func()                  // Kill, Shutdown: unwind the blocked body
	yield func(struct{}) bool     // park: block; false means unwind
	wake  any                     // payload of the wake that ends the current park
}

// Sim returns the simulation the thread belongs to.
func (t *Thread) Sim() *Sim { return t.sim }

// Now reports the current virtual time.
func (t *Thread) Now() Time { return t.sim.now }

// Go creates a simulated thread named name running body, scheduled to start
// at the current virtual time. It returns the thread handle immediately; the
// body runs once the scheduler reaches it.
func (s *Sim) Go(name string, body func(*Thread)) *Thread {
	return s.GoAt(s.now, name, body)
}

// GoAt is like Go but delays the thread's start until virtual time `at`.
func (s *Sim) GoAt(at Time, name string, body func(*Thread)) *Thread {
	return s.spawn(at, &Thread{Name: name, body: body})
}

// spawn registers t and schedules its start event.
func (s *Sim) spawn(at Time, t *Thread) *Thread {
	t.ID, t.sim = s.nextID, s
	s.nextID++
	s.live++
	s.threads[t.ID] = t
	if at < s.now {
		at = s.now
	}
	s.push(event{when: at, t: t, v: startMark{}})
	return t
}

// exit forgets a thread whose body has finished or been unwound (or
// that never started).
func (s *Sim) exit(t *Thread) {
	t.exited = true
	s.live--
	delete(s.threads, t.ID)
}

// GoCoro creates a run-to-completion simulated thread named name whose
// body is the resumable program starting at frame f, scheduled to start
// at the current virtual time. Under the default EngineCoro the thread
// has no stack of its own: the dispatcher invokes its continuations
// inline, so every blocking operation costs a method call instead of a
// coroutine switch. Under EngineGoroutine the identical program is
// driven from a free-form thread through the ordinary park protocol —
// the event order is the same either way.
func (s *Sim) GoCoro(name string, f Frame) *Thread {
	return s.GoCoroAt(s.now, name, f)
}

// GoCoroAt is GoCoro with the thread's start delayed until virtual
// time `at`.
func (s *Sim) GoCoroAt(at Time, name string, f Frame) *Thread {
	if s.engine == EngineGoroutine {
		t := s.GoAt(at, name, nil)
		c := newCoro(t, f)
		t.body = c.driveGoroutine
		return t
	}
	t := &Thread{Name: name, rtc: true}
	newCoro(t, f)
	return s.spawn(at, t)
}

// stepCoro continues a run-to-completion thread with a wake payload and,
// when the program finishes, runs its deferred cleanups and does the exit
// bookkeeping, as for a free-form thread whose body returns. The caller
// is dispatchFrom, which keeps the baton throughout and whose deferred
// frameCrashed handles a frame that panics: s.stepping names the thread
// for it, so the step itself sets up no recover.
func (s *Sim) stepCoro(t *Thread, v any) {
	s.stepping = t
	done := t.coro.resume(v)
	s.stepping = nil
	if done {
		t.coro.runCleanups()
		s.exit(t)
	}
}

// frameCrashed is dispatchFrom's deferred function. It acts only on a
// panic out of a run-to-completion frame (s.stepping is set): the same
// sequence a crashing free-form thread goes through — deferred cleanups
// first (they are deeper in the conceptual stack), then the crash
// record, taken here while the panicking frames are still on the stack,
// then the exit bookkeeping — and dispatchFrom returns batonDone, which
// is where the loop's crash check would have taken it. Any other panic
// crossing dispatchFrom — the poison of a dispatching thread's own kill
// — is not looked at and keeps unwinding.
func (s *Sim) frameCrashed(b *baton) {
	t := s.stepping
	if t == nil {
		return
	}
	s.stepping = nil
	r := recover()
	t.coro.runCleanups()
	s.recordCrash(t.Name, r)
	s.exit(t)
	*b = batonDone
}

// Kill schedules t's death at the current virtual time: a kill event
// enters the event queue like any other, so at a fixed seed the thread
// dies at the same point of the event order every run. When the event
// dispatches, t is unwound via a recovered panic (its deferred functions
// run — a killed thread inside Stage.CriticalSection releases its lock),
// and every event still pending for t is skipped. Kill is the fault
// plane's stage-crash primitive; it may be called from scheduler
// callbacks and from other simulated threads. Killing an exited or
// already-killed thread is a no-op. Like Shutdown, Kill requires the
// victim's deferred functions not to block on vclock primitives.
func (s *Sim) Kill(t *Thread) {
	if t.dead || t.exited {
		return
	}
	t.dead = true
	s.push(event{when: s.now, t: t, v: killMark{}})
}

// Dead reports whether t was killed (or marked for death) by Sim.Kill.
func (t *Thread) Dead() bool { return t.dead }

// Crashed returns the first panic captured from a simulated thread or
// scheduler callback, or nil. A non-nil crash halts dispatch:
// Run/RunUntil return normally with the crash recorded, and the caller
// decides whether to propagate it or degrade gracefully.
func (s *Sim) Crashed() *Crash { return s.crash }

// recordCrash captures the first escaping panic. It must run inside the
// recovering deferred function, while the panicking frames are still on
// the stack, so the recorded stack shows the panic site.
func (s *Sim) recordCrash(thread string, v any) {
	if s.crash == nil {
		s.crash = &Crash{Thread: thread, At: s.now, Value: v, Stack: debug.Stack()}
	}
}

// runCallback runs a scheduler callback, capturing an escaping panic as
// a crash. poison is re-raised: a callback that kills the dispatching
// thread itself unwinds through here.
func (s *Sim) runCallback(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(poison); ok {
				panic(r)
			}
			s.recordCrash("(scheduler)", r)
		}
	}()
	fn()
}

// deliver schedules v to be put on q at virtual time `at`, in dispatcher
// context. The queue rides in the event itself — like wake payloads, a
// closure here would put one heap allocation on every cross-domain
// hand-off.
func (s *Sim) deliver(at Time, q *Queue, v any) {
	if at < s.now {
		at = s.now
	}
	s.push(event{when: at, q: q, v: v})
}

// deliverNow runs a scheduled queue delivery, capturing an escaping
// panic as a crash (mirroring runCallback, without the per-event
// closure).
func (s *Sim) deliverNow(q *Queue, v any) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(poison); ok {
				panic(r)
			}
			s.recordCrash("(scheduler)", r)
		}
	}()
	q.Put(v)
}

// baton is dispatchFrom's verdict on where execution continues.
type baton uint8

const (
	// batonDone: no dispatchable event remains (or stop fired, or the
	// run crashed); RunUntil returns.
	batonDone baton = iota
	// batonPassed: the dispatcher reached another free-form thread's
	// wake and left it in s.handoff; RunUntil switches to it.
	batonPassed
	// batonSelf: the caller's own wake-up was the next event; it keeps
	// running, no switch needed.
	batonSelf
)

// dispatchFrom runs the dispatch loop on the calling coroutine until the
// baton moves: the caller is a simulated thread about to block (self
// non-nil) or the RunUntil loop (self nil). Exactly one coroutine
// executes at a time, so no locking is needed anywhere in the simulator.
// A panic out of a frame the loop is stepping ends it through the
// deferred frameCrashed, the one recover on the frame path.
func (s *Sim) dispatchFrom(self *Thread) (b baton) {
	if !s.running {
		// Outside RunUntil (Shutdown's unwind): never dispatch.
		return batonDone
	}
	defer s.frameCrashed(&b)
	for s.q.n > 0 {
		if s.crash != nil {
			return batonDone
		}
		if s.stop != nil && s.stop() {
			return batonDone
		}
		e := s.pop()
		s.now = e.when
		t := e.t
		if t == nil {
			if e.q != nil {
				s.count.Deliveries++
				s.deliverNow(e.q, e.v)
			} else {
				s.count.Callbacks++
				s.runCallback(e.v.(func()))
			}
			continue
		}
		switch e.v.(type) {
		case killMark:
			s.count.Kills++
			switch {
			case t.exited:
			case !t.started:
				// No coroutine was ever made; just forget the thread (its
				// start event is skipped by the dead check below).
				s.exit(t)
			case t.rtc:
				// Nothing to unwind but the Defer stack.
				t.coro.runCleanups()
				s.exit(t)
			case t == self:
				// Self-kill: unwind in place. run recovers the poison and
				// RunUntil, seeing the coroutine finish, does the exit
				// bookkeeping and dispatches on.
				panic(poison{})
			default:
				// Every other started thread is blocked in yield. stop
				// makes that yield report false, the victim unwinds on its
				// own stack and control comes back here, nested inside
				// whichever coroutine is dispatching.
				t.co.stop()
				s.exit(t)
			}
			continue
		case startMark:
			if t.started || t.dead {
				s.count.Skipped++
				continue
			}
			s.count.Starts++
			t.started = true
			if t.rtc {
				// Run-to-completion start: invoke the program inline
				// until it blocks, then keep dispatching.
				s.stepCoro(t, nil)
				continue
			}
			t.co = new(pull)
			t.co.next, t.co.stop = iter.Pull(t.run)
			s.handoff = t
			return batonPassed
		}
		// A wake, with e.v its payload.
		switch {
		case t.dead || t.exited:
			// Stale wake for a killed thread (its sleep or queue hand-off
			// was already scheduled); drop it, whoever is dispatching —
			// the victim itself included, whose kill event comes next.
			s.count.Skipped++
		case t.rtc:
			// The wake's payload goes straight into the continuation, on
			// this stack.
			s.count.Wakes++
			s.stepCoro(t, e.v)
		default:
			s.count.Wakes++
			t.co.wake = e.v
			if t == self {
				return batonSelf
			}
			s.handoff = t
			return batonPassed
		}
	}
	return batonDone
}

// run is the thread's coroutine function. A poison unwind (Kill,
// Shutdown) ends here silently; an application panic is recorded as the
// run's crash and the thread exits cleanly, so dispatch halts at the
// crash and RunUntil returns with Crashed() set. Exit bookkeeping is the
// caller's: whoever sees the coroutine finish calls Sim.exit.
func (t *Thread) run(yield func(struct{}) bool) {
	t.co.yield = yield
	t.sim.cur = t
	defer func() {
		t.sim.cur = nil
		if r := recover(); r != nil {
			if _, ok := r.(poison); !ok {
				t.sim.recordCrash(t.Name, r)
			}
		}
	}()
	t.body(t)
}

// mustRun panics unless t's own body is what is executing: a blocking
// call made for t from a scheduler callback, a stop predicate, another
// thread's body or a deferred function of an unwinding thread would
// otherwise switch coroutines from the wrong stack.
func (t *Thread) mustRun() {
	if t.sim.cur == t {
		return
	}
	if t.rtc {
		panic("vclock: run-to-completion thread " + t.Name + " used the goroutine blocking API (use the Coro methods)")
	}
	panic("vclock: blocking call on thread " + t.Name + " from outside its running body (a callback, a stop predicate, another thread, or a deferred function during Kill/Shutdown)")
}

// park blocks the calling simulated thread until another event wakes it.
// It returns the value passed by the waker (used by queues to hand items
// over), or nil for plain wakes. Before blocking, the thread dispatches
// onward: if the very next event is its own wake-up it returns without
// blocking at all.
func (t *Thread) park() any {
	t.mustRun()
	s := t.sim
	s.cur = nil // dispatcher context: callbacks run inline on this stack
	co := t.co
	if s.dispatchFrom(t) != batonSelf && !co.yield(struct{}{}) {
		panic(poison{})
	}
	s.cur = t
	v := co.wake
	co.wake = nil
	return v
}

// wakeAt schedules t to wake at virtual time `at` with payload v. The
// payload rides in the event itself — a closure here would put one heap
// allocation on every queue hand-off.
func (s *Sim) wakeAt(at Time, t *Thread, v any) {
	s.push(event{when: at, t: t, v: v})
}

// A sleep is shared by Thread.SleepUntil and Coro.SleepUntil as two
// halves. When the sleeper's wake-up would be the strictly earliest
// pending event, parking is a formality: the scheduler would check the
// stop predicate once, pop the wake and continue this same thread with
// the clock advanced. sleepInline performs exactly that transition in
// place — same stop-predicate evaluation, same clock, no other event can
// run in between because none is scheduled before the wake (ties lose to
// already-pushed events, which leave their bucket first, so equality
// takes the slow path). This removes a dispatch round and a queue
// push/pop from every uncontended Compute/Sleep, without changing the
// event order observed by any thread. Otherwise sleepScheduled pushes
// the wake and the caller must block the thread.
//
// The earliest pending time is a field read, so the predicate half costs
// no call: wakeIsNext and sleepInline are each within the inliner's
// budget (one function holding both is not: the indirect stop call alone
// is 66 of the 80), and the two SleepUntil bodies evaluate them in the
// order the dispatch loop would — running, crash, earliest, stop.

// wakeIsNext reports whether a wake at `at` would be the strictly
// earliest pending event of a run that is still dispatching. A target
// in the past is left to sleepScheduled, which clamps it (and so is a
// sleep to the end of time itself, which nothing is strictly after).
func (s *Sim) wakeIsNext(at Time) bool {
	return s.running && s.crash == nil && s.now <= at && at < s.q.next
}

// sleepInline advances the clock to `at` unless the stop predicate
// fires; it reports whether the sleep is over.
func (s *Sim) sleepInline(at Time) bool {
	if s.stop != nil && s.stop() {
		return false
	}
	s.now = at
	s.count.SleepsInline++
	return true
}

// sleepScheduled pushes t's wake at `at`, or now if that is later.
func (s *Sim) sleepScheduled(t *Thread, at Time) {
	s.count.SleepsScheduled++
	s.schedule(max(at, s.now), t)
}

// SleepUntil parks the calling thread until virtual time `at`.
func (t *Thread) SleepUntil(at Time) {
	// Fail even on the would-be fast path: an API misuse that only
	// panics under contention would be maddening to reproduce.
	t.mustRun()
	if s := t.sim; !s.wakeIsNext(at) || !s.sleepInline(at) {
		s.sleepScheduled(t, at)
		t.park()
	}
}

// Sleep parks the calling thread for duration d of virtual time.
func (t *Thread) Sleep(d Duration) { t.SleepUntil(t.sim.now.Add(d)) }

// Yield lets every other runnable thread scheduled at the current instant
// run before the calling thread continues.
func (t *Thread) Yield() { t.SleepUntil(t.sim.now) }

// Run drives the simulation until no events remain. It panics if called
// re-entrantly from a simulated thread.
func (s *Sim) Run() { s.RunUntil(nil) }

// RunFor drives the simulation until virtual time `end` (events after end
// remain pending) or until no events remain.
func (s *Sim) RunFor(end Time) {
	s.RunUntil(func() bool { return s.now >= end })
}

// RunBefore drives the simulation until every pending event lies at or
// after `horizon` (or no events remain). This is the epoch-window
// primitive of Group: unlike RunFor — whose stop predicate only trips
// after an event at or past the bound has already run — RunBefore peeks
// at the queue, so an event at exactly `horizon` stays pending for the
// next epoch. The stop predicate composes with the SleepUntil fast
// path: a sleeper targeting a time at or past the horizon always takes
// the slow path and parks.
func (s *Sim) RunBefore(horizon Time) {
	s.horizon = horizon
	if s.atBound == nil {
		s.atBound = s.reachedHorizon
	}
	s.RunUntil(s.atBound)
}

func (s *Sim) reachedHorizon() bool {
	return s.q.next >= s.horizon
}

// RunUntil drives the simulation until stop returns true (checked between
// events) or until no events remain. A nil stop runs to completion. The
// stop predicate must be a pure function of simulation state: the
// inline sleep fast path evaluates it at the same junctures the dispatch
// loop would, but may evaluate it one extra time at the juncture where
// it first returns true.
func (s *Sim) RunUntil(stop func() bool) {
	if s.running {
		// A nested run would tear down the outer dispatch state on
		// return, silently truncating the outer run; fail loudly instead.
		panic("vclock: RunUntil called re-entrantly (from a callback, stop predicate, or simulated thread)")
	}
	s.running, s.stop = true, stop
	defer func() { s.running, s.stop = false, nil }()
	for s.dispatchFrom(nil) == batonPassed {
		// Each thread switched to dispatches onward when it blocks, so
		// this inner loop is the whole run between two root dispatches.
		for s.handoff != nil {
			t := s.handoff
			s.handoff = nil
			s.count.Switches++
			if _, blocked := t.co.next(); !blocked {
				s.exit(t)
			}
		}
	}
}

// Switches reports how many times the run has switched to a free-form
// thread's coroutine: once per start or resumption of a Go body that the
// RunUntil loop handed the baton to. Run-to-completion threads, callbacks
// and a blocker whose own wake is the next event cost none, so a program
// written entirely as frames reads 0 — the kernel's count of "switches by
// representation".
func (s *Sim) Switches() int64 { return int64(s.count.Switches) }

// Counters is the kernel's account of a run: what was scheduled, what
// the dispatcher did with it and what the event queue paid. The fields
// are plain integers bumped on the single dispatching coroutine — no
// atomics, no allocation — and are a function of the program alone, so
// two runs at one seed report identical counters. Every scheduled event
// is dispatched, skipped or still pending:
//
//	Scheduled == Wakes + Starts + Kills + Callbacks + Deliveries + Skipped + Pending
type Counters struct {
	Scheduled   uint64 // events pushed
	SameInstant uint64 // of which at the current instant
	Moved       uint64 // events a rebase moved to a lower bucket (see eventQueue)
	Pending     uint64 // events scheduled and not yet popped
	PendingMax  uint64 // high-water mark of Pending

	// Events dispatched, by kind.
	Wakes      uint64 // thread resumed: sleep end, queue hand-off, lock grant, timeout
	Starts     uint64 // thread started
	Kills      uint64 // Sim.Kill events
	Callbacks  uint64 // Sim.At / After / Every
	Deliveries uint64 // Sim.deliver: cross-domain and direct-link queue puts
	Skipped    uint64 // stale wakes and starts of killed threads, popped and dropped

	SleepsInline    uint64 // SleepUntil / Compute served by advancing the clock in place
	SleepsScheduled uint64 // ... by a wake event
	FrameSteps      uint64 // Coro.resume calls
	Switches        uint64 // hand-offs to a free-form thread's coroutine (Sim.Switches)

	Reserves       uint64 // positive-duration Compute requests booked on a CPU
	ReservesQueued uint64 // of which found every core busy: the request waited for one
}

// Counters reports the run's counters so far.
func (s *Sim) Counters() Counters {
	c := s.count
	c.Scheduled, c.Pending = s.seq, uint64(s.q.n)
	return c
}

// Live reports the number of simulated threads that have been created and
// have not yet exited. A nonzero value after Run returns indicates threads
// blocked forever (e.g. waiting on a queue nobody fills); that is legal and
// common for server threads.
func (s *Sim) Live() int { return s.live }

// Shutdown unwinds every simulated thread that is still blocked,
// releasing their coroutines (run-to-completion threads have none; only
// their cleanups run). It must be called only after Run/RunUntil has
// returned (i.e. from the host goroutine, with no events pending that
// the caller still cares about). Free-form threads are unwound via a
// panic recovered in the thread's coroutine function, so their deferred
// functions run; coroutine threads run their Defer stacks.
//
// Threads unwind in ID (creation) order — not map order — so any side
// effects of their teardown (released locks, final counter updates) are
// the same every run. Shutdown is idempotent: every thread it touches
// is forgotten, so a second call finds nothing to do. It also copes
// with threads a Sim.Kill marked dead whose kill event never
// dispatched because the run stopped first: they are still blocked
// like any other thread and unwind the same way.
func (s *Sim) Shutdown() {
	// Collect and order first: the unwinds mutate the map.
	ids := make([]int, 0, len(s.threads))
	for id := range s.threads {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		t := s.threads[id]
		switch {
		case !t.started:
			// The thread never ran: no defers registered, no coroutine.
		case t.rtc:
			t.coro.runCleanups()
		default:
			t.co.stop()
		}
		s.exit(t)
	}
}
