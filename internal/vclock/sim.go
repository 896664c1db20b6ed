package vclock

import (
	"fmt"
	"iter"
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
// switch, none per event. Event order is a function of the heap alone:
// whoever dispatches runs the same pop-min loop over the same heap.
type Sim struct {
	now     Time
	events  eventHeap
	seq     uint64
	live    int // threads started and not yet exited
	nextID  int
	threads map[int]*Thread

	running bool        // inside RunUntil
	stop    func() bool // RunUntil's stop predicate, nil when absent
	engine  EngineKind  // how GoCoro threads execute (snapshot of DefaultEngine)

	cur      *Thread // free-form thread whose body is executing (set by run and park); nil in dispatcher context
	handoff  *Thread // thread whose wake the dispatcher reached; RunUntil switches to it
	switches int64   // hand-offs RunUntil has made (see Switches)

	crash *Crash // first captured panic; halts dispatch

	horizon Time        // RunBefore's bound, read by reachedHorizon
	atBound func() bool // s.reachedHorizon, bound once: RunBefore allocates nothing
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

type event struct {
	when  Time
	seq   uint64
	t     *Thread // thread to wake (or start), or
	fn    func()  // callback to run in dispatcher context, or
	q     *Queue  // queue to deliver v to in dispatcher context
	v     any     // payload delivered to t (queue item), nil for plain wakes
	start bool    // t is to be started, not resumed
	kill  bool    // t is to be unwound (Sim.Kill)
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (when, seq).
// container/heap is deliberately not used: its interface methods box every
// pushed and popped event into an `any`, which costs two heap allocations
// per scheduled event — on the profiler hot path, where every
// Probe.Compute schedules a wake-up, that is the difference between an
// allocation-free steady state and ~2 allocs per sample. The 4-ary shape
// halves the sift depth of the dispatcher's pop (the busiest heap
// operation); because (when, seq) is a total order, the pop sequence is
// identical whatever the heap's internal arity.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (s *Sim) push(e event) {
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

func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the fn closure (and payload) for GC
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

func (s *Sim) schedule(at Time, t *Thread) { s.push(event{when: at, t: t}) }

// New returns an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{threads: make(map[int]*Thread), engine: DefaultEngine}
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
	s.push(event{when: at, fn: fn})
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
	s.push(event{when: at, t: t, start: true})
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
// when the program finishes or panics, performs the same cleanup-then-
// exit sequence a free-form thread goes through: deferred cleanups first
// (they are deeper in the conceptual stack), then the crash record,
// then the exit bookkeeping. The caller is the dispatcher; it keeps the
// baton throughout.
func (s *Sim) stepCoro(t *Thread, v any) {
	c := t.coro
	done := false
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				crashed = true
				c.runCleanups()
				s.recordCrash(t.Name, r)
			}
		}()
		op, _ := c.Resume(v)
		done = op == CoroDone
	}()
	if done {
		c.runCleanups()
	}
	if done || crashed {
		s.exit(t)
	}
}

// Kill schedules t's death at the current virtual time: a kill event
// enters the heap like any other, so at a fixed seed the thread dies at
// the same point of the event order every run. When the event
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
	s.push(event{when: s.now, t: t, kill: true})
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
func (s *Sim) dispatchFrom(self *Thread) baton {
	if !s.running {
		// Outside RunUntil (Shutdown's unwind): never dispatch.
		return batonDone
	}
	for len(s.events) > 0 {
		if s.crash != nil {
			return batonDone
		}
		if s.stop != nil && s.stop() {
			return batonDone
		}
		e := s.pop()
		if e.when < s.now {
			panic(fmt.Sprintf("vclock: event scheduled in the past: %v < %v", e.when, s.now))
		}
		s.now = e.when
		switch {
		case e.kill:
			t := e.t
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
		case e.fn != nil:
			s.runCallback(e.fn)
		case e.q != nil:
			s.deliverNow(e.q, e.v)
		case e.start:
			t := e.t
			if t.started || t.dead {
				continue
			}
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
		case e.t.dead || e.t.exited:
			// Stale wake for a killed thread (its sleep or queue hand-off
			// was already scheduled); drop it, whoever is dispatching —
			// the victim itself included, whose kill event comes next.
		case e.t.rtc:
			// The wake's payload goes straight into the continuation, on
			// this stack.
			s.stepCoro(e.t, e.v)
		default:
			e.t.co.wake = e.v
			if e.t == self {
				return batonSelf
			}
			s.handoff = e.t
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

// sleepUntil is the sleep shared by Thread.SleepUntil and
// Coro.SleepUntil. It reports true when t need not block at all.
//
// When the sleeper's wake-up would be the strictly earliest pending
// event, parking is a formality: the scheduler would check the stop
// predicate once, pop the wake and continue this same thread with the
// clock advanced. sleepUntil performs exactly that transition inline —
// same stop-predicate evaluation, same clock, no other event can run in
// between because none is scheduled before the wake (ties lose to
// already-pushed events, which hold smaller sequence numbers, so
// equality takes the slow path). This removes a dispatch round and
// a heap push/pop from every uncontended Compute/Sleep, without
// changing the event order observed by any thread. Otherwise the wake
// is scheduled and the caller must block t.
func (s *Sim) sleepUntil(t *Thread, at Time) (inline bool) {
	if at < s.now {
		at = s.now
	}
	if s.running && s.crash == nil && (len(s.events) == 0 || at < s.events[0].when) && (s.stop == nil || !s.stop()) {
		s.now = at
		return true
	}
	s.schedule(at, t)
	return false
}

// SleepUntil parks the calling thread until virtual time `at`.
func (t *Thread) SleepUntil(at Time) {
	// Fail even on the would-be fast path: an API misuse that only
	// panics under contention would be maddening to reproduce.
	t.mustRun()
	if !t.sim.sleepUntil(t, at) {
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
// at the heap, so an event at exactly `horizon` stays pending for the
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
	return len(s.events) == 0 || s.events[0].when >= s.horizon
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
			s.switches++
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
func (s *Sim) Switches() int64 { return s.switches }

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
