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
// Every simulated thread is a program the dispatch loop steps inline, on
// the RunUntil caller's stack: a chain of frames (GoCoro), or, for a
// free-form body (Sim.Go), the one frame driveBody, which resumes the
// body's runtime coroutine (iter.Pull) with the wake's payload and
// returns once the body blocks or returns. So exactly one of {the
// RunUntil caller, one simulated thread} executes at a time, and control
// moves by coroutine switch, never through the Go scheduler: two
// switches per block of a free-form body, none for a frame program, a
// callback or a queue delivery. Event order is a function of the event
// queue alone.
type Sim struct {
	now     Time
	seq     uint64   // events scheduled so far (Counters.Scheduled)
	count   Counters // see Counters; Scheduled and Pending are filled on read
	live    int      // threads started and not yet exited
	nextID  int
	threads map[int]*Thread

	running bool        // inside RunUntil
	stop    func() bool // RunUntil's stop predicate, nil when absent
	engine  EngineKind  // how GoCoro threads execute (SetEngine)

	cur      *Thread // free-form thread whose body is executing (set by driveBody); nil in dispatcher context
	stepping *Thread // thread whose program is executing (set by stepCoro); nil otherwise

	crash *Crash // first captured panic; halts dispatch

	horizon Time        // RunBefore's bound, read by reachedHorizon
	atBound func() bool // s.reachedHorizon, bound once: RunBefore allocates nothing

	q eventQueue // last: its 2 KB of bucket headers stay off the cache lines above
}

// poison is the panic that unwinds a free-form body stopped by Kill or
// Shutdown: it is recovered in the thread's coroutine function, so the
// body's deferred functions run.
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
	s := &Sim{threads: make(map[int]*Thread)}
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
	body    func(*Thread) // free-form body; nil for a frame program
	coro    *Coro         // the program the dispatcher steps: GoCoro's frames, or driveBody
	started bool
	exited  bool
	dead    bool   // marked by Kill; pending events for it are skipped
	waitGen uint64 // bumped per queue wait; guards stale timeout wakes

	co *pull // a free-form body's coroutine, made by driveBody at the start event

	// Data is an arbitrary per-thread payload. The profiler attaches its
	// per-thread probe here so that libraries handed only a *Thread can
	// reach the probe without a package cycle.
	Data any
}

// pull is a free-form thread's coroutine (iter.Pull). It is its own
// allocation so that run-to-completion threads, which exist by the
// hundred thousand, do not carry the fields. Its stop is the thread's
// first Defer.
type pull struct {
	next  func() (struct{}, bool) // driveBody: run the body until it blocks or finishes
	yield func(struct{}) bool     // park: block; false means unwind
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
	return s.spawn(at, &Thread{Name: name, body: body}, driveBody)
}

// spawn registers t with the program starting at frame f and schedules
// its start event.
func (s *Sim) spawn(at Time, t *Thread, f Frame) *Thread {
	t.ID, t.sim = s.nextID, s
	t.coro = &Coro{t: t, next: f}
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
// driven from inside a free-form body, which parks between its steps —
// the event order is the same either way.
func (s *Sim) GoCoro(name string, f Frame) *Thread {
	return s.GoCoroAt(s.now, name, f)
}

// GoCoroAt is GoCoro with the thread's start delayed until virtual
// time `at`.
func (s *Sim) GoCoroAt(at Time, name string, f Frame) *Thread {
	if s.engine == EngineGoroutine {
		t := s.GoAt(at, name, nil)
		t.body = (&Coro{t: t, next: f}).driveGoroutine
		return t
	}
	return s.spawn(at, &Thread{Name: name}, f)
}

// stepCoro continues a thread's program with a wake payload (nil at its
// start) and, when the program finishes, runs its deferred cleanups and
// does the exit bookkeeping. The caller is dispatch, whose deferred
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

// frameCrashed is dispatch's deferred function. It acts only on a panic
// out of a frame (s.stepping is set): the same sequence a crashing
// free-form body goes through — deferred cleanups first (they are deeper
// in the conceptual stack), then the crash record, taken here while the
// panicking frames are still on the stack, then the exit bookkeeping —
// and dispatch returns, where the loop's crash check would have taken
// it. A free-form body's own panic never gets here: its coroutine
// function recovers it. Any other panic crossing dispatch (a stop
// predicate's) is not looked at and leaves RunUntil.
func (s *Sim) frameCrashed() {
	t := s.stepping
	if t == nil {
		return
	}
	s.stepping = nil
	r := recover()
	t.coro.runCleanups()
	s.recordCrash(t.Name, r)
	s.exit(t)
}

// Kill schedules t's death at the current virtual time: a kill event
// enters the event queue like any other, so at a fixed seed the thread
// dies at the same point of the event order every run. When the event
// dispatches, t's Defer stack runs — for a free-form body, its first
// entry unwinds the body via a recovered panic, so its deferred functions
// run and a killed thread inside Stage.CriticalSection releases its lock
// — and every event still pending for t is skipped. Kill is the fault
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
// a crash.
func (s *Sim) runCallback(fn func()) {
	defer func() {
		if r := recover(); r != nil {
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
			s.recordCrash("(scheduler)", r)
		}
	}()
	q.Put(v)
}

// dispatch runs the event loop on the RunUntil caller's stack until no
// dispatchable event remains, stop fires or the run crashes. Every
// thread's start and wake steps its program inline, a free-form body's
// included (driveBody), so exactly one coroutine executes at a time and
// no locking is needed anywhere in the simulator. A panic out of a frame
// the loop is stepping ends it through the deferred frameCrashed, the
// one recover on the frame path.
func (s *Sim) dispatch() {
	defer s.frameCrashed()
	for s.q.n > 0 {
		if s.crash != nil {
			return
		}
		if s.stop != nil && s.stop() {
			return
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
			if !t.exited {
				// A thread that never started has nothing to unwind; any
				// other is blocked, and its Defer stack unwinds it (a
				// free-form body's first entry stops its coroutine).
				if t.started {
					t.coro.runCleanups()
				}
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
			s.stepCoro(t, nil)
			continue
		}
		// A wake, with e.v its payload.
		if t.dead || t.exited {
			// Stale wake for a killed thread (its sleep or queue hand-off
			// was already scheduled); drop it.
			s.count.Skipped++
			continue
		}
		s.count.Wakes++
		s.stepCoro(t, e.v)
	}
}

// driveBody is the program of every free-form thread: one frame that
// resumes the body's coroutine with the wake's payload and returns once
// the body blocks or returns; the payload rides in c.passv, which park
// reads. At the start event it makes the coroutine and registers its
// stop as the first Defer, so a kill or Shutdown unwinds a blocked body
// through the same runCleanups a frame program uses. The body blocks by
// taking a Coro step with driveBody as its continuation (Thread.park),
// so when the coroutine yields the step has been taken.
func driveBody(c *Coro, v any) Step {
	t := c.t
	s := t.sim
	if t.co == nil {
		var stop func()
		t.co = new(pull)
		t.co.next, stop = iter.Pull(t.run)
		c.Defer(stop)
	}
	c.passv = v
	s.count.Switches++
	s.cur = t
	_, blocked := t.co.next()
	s.cur = nil
	if !blocked {
		return c.End()
	}
	return Step{}
}

// run is the thread's coroutine function. A poison unwind (Kill,
// Shutdown) ends here silently; an application panic is recorded as the
// run's crash and the thread exits cleanly, so dispatch halts at the
// crash and RunUntil returns with Crashed() set.
func (t *Thread) run(yield func(struct{}) bool) {
	t.co.yield = yield
	defer func() {
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
// otherwise take t's program's step from the wrong stack. Every blocking
// Thread method calls it first, before its Coro op touches t.coro, so an
// op that would complete on the spot fails too.
func (t *Thread) mustRun() {
	if t.sim.cur == t {
		return
	}
	if t.body == nil {
		panic("vclock: run-to-completion thread " + t.Name + " used the goroutine blocking API (use the Coro methods)")
	}
	panic("vclock: blocking call on thread " + t.Name + " from outside its running body (a callback, a stop predicate, another thread, or a deferred function during Kill/Shutdown)")
}

// park finishes a blocking Thread method, whose Coro op on t.coro (with
// driveBody or, for Await, bodyReturn as its continuation) is the Step
// argument. When the op completed on the spot it returns the op's value
// at once; otherwise the body yields to driveBody and park returns the
// payload of the wake that resumes it, after Coro.resume has run the
// op's post-wake bookkeeping. Either way the value is in c.passv.
func (t *Thread) park(Step) any {
	c := t.coro
	if c.blocked != blockNone && !t.co.yield(struct{}{}) {
		panic(poison{})
	}
	v := c.passv
	c.passv, c.stepped = nil, false
	return v
}

// Await runs op — a Coro op, or a frame chain that ends by continuing
// into k — as a step of t's own program and returns the value k
// receives: a blocking library call is its frame op, awaited, with no
// second driver. Frames that run before the chain first blocks run here,
// on the body's stack; the rest run on the dispatcher after each wake,
// as for any frame program, and a Coro.Defer the chain registers is on
// t's Defer stack, so a kill while the body waits inside op runs it
// before the body's own deferred functions. Like every blocking Thread
// method, Await must be called from t's own body.
func (t *Thread) Await(op func(c *Coro, k Frame) Step) any {
	t.mustRun()
	c := t.coro
	op(c, bodyReturn)
	if c.blocked == blockNone {
		v := c.passv
		c.passv = nil
		if c.done || c.resume(v) {
			panic("vclock: awaited chain on thread " + t.Name + " ended the program instead of continuing into k")
		}
	}
	if c.blocked == blockReturn {
		c.blocked = blockNone
	}
	return t.park(Step{})
}

// bodyReturn is the k Thread.Await passes its op. Reached on the body's
// own stack, the chain never blocked: it hands v to Await as a
// blockReturn step, which ends the frame loop as a block would. Reached
// on the dispatcher, after a wake, it is driveBody.
func bodyReturn(c *Coro, v any) Step {
	if c.t.sim.cur != c.t {
		return driveBody(c, v)
	}
	c.passv = v
	return c.block(blockReturn, nil)
}

// wakeAt schedules t to wake at virtual time `at` with payload v. The
// payload rides in the event itself — a closure here would put one heap
// allocation on every queue hand-off.
func (s *Sim) wakeAt(at Time, t *Thread, v any) {
	s.push(event{when: at, t: t, v: v})
}

// SleepUntil parks the calling thread until virtual time `at`.
func (t *Thread) SleepUntil(at Time) {
	t.mustRun()
	t.park(t.coro.SleepUntil(at, driveBody))
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
	s.dispatch()
}

// Switches reports how many times the run has switched to a free-form
// thread's coroutine: once per start or resumption of a Go body.
// Run-to-completion threads and callbacks cost none, so a program
// written entirely as frames reads 0 — the kernel's count of "switches
// by representation".
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
	FrameSteps      uint64 // Coro.resume calls: every start and wake, a free-form body's too, and each awaited chain run on its body's stack
	Switches        uint64 // starts and resumptions of a free-form body's coroutine (Sim.Switches)

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

// Shutdown unwinds every simulated thread that is still blocked by
// running its Defer stack, as a kill does: a free-form body's first entry
// stops its coroutine via a panic recovered in the thread's coroutine
// function, so its deferred functions run. It must be called only after
// Run/RunUntil has returned (i.e. from the host goroutine, with no events
// pending that the caller still cares about).
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
		if t.started {
			t.coro.runCleanups()
		}
		s.exit(t)
	}
}
