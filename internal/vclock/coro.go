package vclock

// This file is the run-to-completion scheduler: simulated threads whose
// bodies are resumable state machines instead of coroutines with stacks. A Frame is
// one straight-line segment of such a body; it runs non-blocking code
// and ends by taking exactly one step — continue into another frame,
// block on a scheduling primitive naming the frame to resume in, or
// finish. The dispatcher pops the event queue and invokes continuations
// directly, so a blocking operation costs a method call instead of a
// coroutine switch, and a blocked thread keeps no stack.
//
// Each blocking operation is written once, here. The blocking Thread
// method is a thin driver over it: it takes the same Coro step on the
// thread's own program with driveBody as the continuation, then parks
// the body (Thread.park) unless the step completed on the spot, and the
// post-wake bookkeeping runs in resume for both faces. Thread.Await does
// the same for a whole frame chain, so a library's blocking call is its
// frame op, awaited, not a second driver. So a program expressed as
// frames and the same program as a free-form body perform the same event
// pushes and waiter-list mutations in the same order, and the event
// order is a function of the event queue's contents alone. The
// quick-check property tests and the per-model frame-parity tests pin
// this.

// Step is the opaque receipt a Frame returns. Frames cannot construct a
// meaningful Step themselves — they obtain one by calling exactly one
// stepping operation (Get, Sleep, Lock, Goto, End, ...); the
// trampoline panics if a frame returns without stepping, which turns
// "forgot to block or continue" bugs into immediate failures instead of
// silently wedged threads.
type Step struct{ _ byte }

// Frame is one resumable segment of a run-to-completion thread body. It
// receives the coroutine and the value delivered by the wake that
// resumed it (the queue item for Get, nil for sleeps and locks), runs
// arbitrary non-blocking code, and must finish by taking exactly one
// step.
type Frame func(c *Coro, v any) Step

// blockKind records which primitive the coroutine blocked on, so resume
// can run the operation's post-wake bookkeeping before re-entering user
// frames.
type blockKind uint8

const (
	blockNone       blockKind = iota
	blockWake                 // plain wake: queue get, sleep, yield, compute
	blockLock                 // lock acquisition: wait accounting + observer pending
	blockGetTimeout           // timed get: the wake payload may be the timeout sentinel
	blockReturn               // not a block: an awaited chain reached Thread.Await's k on the body's stack
)

// Coro is the execution state of one thread's program — a frame chain,
// or driveBody over a free-form body: the pending continuation and the
// bookkeeping its blocking operations leave for resume. All fields are
// owned by whoever is dispatching, so no locking is needed — the same
// one-coroutine-at-a-time discipline as the rest of the simulator.
type Coro struct {
	t     *Thread
	next  Frame
	passv any // value handed to the next frame when not blocking, or to a body's park

	blocked blockKind
	stepped bool // set by the one permitted step per frame
	done    bool

	timedOut bool

	// A contended Lock's queued request, for the wait accounting that
	// resume runs once the grant's wake arrives (Lock.granted).
	lock         *Lock
	lockMode     LockMode
	lockSince    Time
	lockBlockers []*Thread

	cleanups []func() // Defer stack, run on finish, kill and shutdown
}

// Thread returns the simulated thread this coroutine runs as.
func (c *Coro) Thread() *Thread { return c.t }

// Now reports the current virtual time.
func (c *Coro) Now() Time { return c.t.sim.now }

// op validates the one-step-per-frame discipline and mints the receipt.
func (c *Coro) op() Step {
	if c.stepped {
		panic("vclock: coroutine frame in thread " + c.t.Name + " took two steps; a frame must take exactly one")
	}
	c.stepped = true
	return Step{}
}

// block is the step of an operation that parked the thread: k continues
// once a wake arrives, after resume has run the post-wake bookkeeping
// that kind names.
func (c *Coro) block(kind blockKind, k Frame) Step {
	c.next, c.blocked = k, kind
	return c.op()
}

// Goto continues immediately with f (which receives nil): a tail
// transfer between frames.
func (c *Coro) Goto(f Frame) Step {
	c.next = f
	return c.op()
}

// End finishes the program.
func (c *Coro) End() Step {
	c.done = true
	return c.op()
}

// Defer registers fn to run — last registered first — when the program
// finishes, is killed, or is unwound by Shutdown: the coroutine
// equivalent of a goroutine body's deferred functions. Like those, fn
// must not block on simulator primitives.
func (c *Coro) Defer(fn func()) { c.cleanups = append(c.cleanups, fn) }

// runCleanups runs the Defer stack. A panicking cleanup is recorded as
// the run's crash (first crash wins) and the remaining cleanups still
// run, so one failing teardown cannot leak the others' resources.
func (c *Coro) runCleanups() {
	for i := len(c.cleanups) - 1; i >= 0; i-- {
		fn := c.cleanups[i]
		c.cleanups[i] = nil
		func() {
			defer func() {
				if r := recover(); r != nil {
					c.t.sim.recordCrash(c.t.Name, r)
				}
			}()
			fn()
		}()
	}
	c.cleanups = c.cleanups[:0]
}

// Get is Queue.Get for coroutines: if an item is buffered, k continues
// immediately with it; otherwise the thread joins the waiter list and k
// runs when a Put hands the item over in the wake's payload.
func (c *Coro) Get(q *Queue, k Frame) Step {
	t := c.t
	if v, ok := t.TryGet(q); ok {
		c.next, c.passv = k, v
		return c.op()
	}
	t.waitGen++
	q.enqueueWaiter(t)
	return c.block(blockWake, k)
}

// GetTimeout is Get bounded to d of virtual time: k continues with the
// item, or with nil once d elapses first — distinguish with TimedOut,
// which is valid inside k. A non-positive d degrades to TryGet.
func (c *Coro) GetTimeout(q *Queue, d Duration, k Frame) Step {
	t := c.t
	c.timedOut = false
	if v, ok := t.TryGet(q); ok {
		c.next, c.passv = k, v
		return c.op()
	}
	if d <= 0 {
		c.timedOut = true
		return c.Goto(k)
	}
	// The thread waits on q as for Get; the wait ends, d from now, with a
	// timeoutWake payload unless a Put hands it an item first. The
	// generation stamp ties the timer to THIS wait: if a Put wins and the
	// thread is already waiting again (on any queue) when the timer fires,
	// the stamp has moved on and the timer does nothing. Together with
	// removeWaiter this preserves the single-wake invariant — a parked
	// thread is woken by exactly one of {hand-off, timeout}.
	s := t.sim
	t.waitGen++
	gen := t.waitGen
	q.enqueueWaiter(t)
	s.At(s.now.Add(d), func() {
		if t.waitGen == gen && !t.dead && q.removeWaiter(t) {
			s.wakeAt(s.now, t, timeoutWake{})
		}
	})
	return c.block(blockGetTimeout, k)
}

// TimedOut reports whether the GetTimeout that last resumed this
// coroutine expired without an item. It is meaningful inside the
// continuation frame passed to GetTimeout, until the next GetTimeout.
func (c *Coro) TimedOut() bool { return c.timedOut }

// SleepUntil parks the coroutine until virtual time `at`, then runs k.
//
// When the wake-up would be the strictly earliest pending event, parking
// is a formality: the dispatch loop would check the stop predicate once,
// pop the wake and continue this same thread with the clock advanced.
// The fast path performs exactly that transition in place — same checks
// in the loop's order (crash, earliest, stop), same clock, and no other
// event can run in between because none is scheduled before the wake
// (ties lose to already-pushed events, which leave their bucket first,
// so equality takes the slow path, as does a target in the past, which
// the slow path clamps). This removes a dispatch round and a queue
// push/pop from every uncontended Compute/Sleep without changing the
// event order observed by any thread. The earliest pending time is a
// field read, so the predicate costs no call.
func (c *Coro) SleepUntil(at Time, k Frame) Step {
	s := c.t.sim
	if s.crash == nil && s.now <= at && at < s.q.next && (s.stop == nil || !s.stop()) {
		s.now = at
		s.count.SleepsInline++
		return c.Goto(k)
	}
	s.count.SleepsScheduled++
	s.schedule(max(at, s.now), c.t)
	return c.block(blockWake, k)
}

// Sleep parks the coroutine for d of virtual time, then runs k.
func (c *Coro) Sleep(d Duration, k Frame) Step { return c.SleepUntil(c.t.sim.now.Add(d), k) }

// Yield lets every other runnable thread scheduled at the current
// instant run before k continues.
func (c *Coro) Yield(k Frame) Step { return c.SleepUntil(c.t.sim.now, k) }

// Compute consumes d of CPU time on cpu, then runs k: it books a core
// (CPU.reserve) and sleeps until the computation ends. Zero and negative
// durations continue at once.
func (c *Coro) Compute(cpu *CPU, d Duration, k Frame) Step {
	if d <= 0 {
		return c.Goto(k)
	}
	return c.SleepUntil(cpu.reserve(d), k)
}

// Lock acquires l in the given mode, then runs k. A request that
// Lock.request queues runs Lock.granted in resume, just before k.
func (c *Coro) Lock(l *Lock, mode LockMode, k Frame) Step {
	w, queued := l.request(c.t, mode)
	if !queued {
		return c.Goto(k)
	}
	c.lock, c.lockMode, c.lockSince, c.lockBlockers = l, mode, w.since, w.blockers
	return c.block(blockLock, k)
}

// Unlock releases the coroutine's hold on l (never blocks; not a step).
func (c *Coro) Unlock(l *Lock) { c.t.Unlock(l) }

// resume is the trampoline: it runs the post-wake bookkeeping of the
// operation the coroutine blocked on, then invokes frames — feeding each
// one the value the previous step produced — until the program blocks
// again or finishes, and reports which. The dispatcher calls it with
// each wake's payload; the goroutine engine's driver calls it between
// parks. Thread.Await calls it with nothing blocked, to run an awaited
// chain on the body's stack: there the chain's return to the body
// (blockReturn) leaves the loop as a block does.
func (c *Coro) resume(v any) (done bool) {
	t := c.t
	t.sim.count.FrameSteps++
	switch c.blocked {
	case blockLock:
		c.lock.granted(t, c.lockMode, c.lockSince, c.lockBlockers)
		c.lock, c.lockBlockers = nil, nil
	case blockGetTimeout:
		if _, ok := v.(timeoutWake); ok {
			c.timedOut = true
			v = nil
		}
	}
	c.blocked = blockNone
	for {
		f := c.next
		c.next = nil
		c.stepped = false
		f(c, v)
		if !c.stepped {
			panic("vclock: coroutine frame in thread " + t.Name + " returned without taking a step (Get/Sleep/Lock/Goto/End/...)")
		}
		if c.blocked != blockNone {
			return false
		}
		if c.done {
			return true
		}
		v, c.passv = c.passv, nil
	}
}

// driveGoroutine adapts a coroutine program to the goroutine engine: the
// program's Coro (not t.coro, which is the body's driver) is resumed
// inside a free-form body, which parks through its driver each time the
// program blocks, so the program performs exactly the scheduling
// operations the run-to-completion engine would — the engines are
// interchangeable per thread. The driver's plain wake hands the payload
// through untouched; the program's own resume runs the post-wake
// bookkeeping. Kill and Shutdown unwind through park's poison panic; the
// deferred cleanup run mirrors stepCoro's.
func (c *Coro) driveGoroutine(t *Thread) {
	defer c.runCleanups()
	var v any
	for !c.resume(v) {
		v = t.park(t.coro.block(blockWake, driveBody))
	}
}
