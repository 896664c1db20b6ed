package whodunit

import (
	"fmt"
	"slices"

	"whodunit/internal/faults"
	"whodunit/internal/profiler"
	"whodunit/internal/shmflow"
	"whodunit/internal/vclock"
	"whodunit/internal/vm"
)

// DefaultCyclesPerSecond converts emulated machine cycles to virtual
// time: the paper's 2.4 GHz Xeon.
const DefaultCyclesPerSecond = 2_400_000_000

// emulatedStepLimit bounds a single emulated critical-section execution;
// the library's queue programs run a dozen instructions, so hitting it
// means a user program diverged.
const emulatedStepLimit = 100_000

// flowState is the app's token plumbing for shared-memory flow detection
// (§3.5): it maps the transaction contexts of threads entering emulated
// critical sections to opaque flow tokens and back, so a context picked
// up by the tracker on the consumer side can be re-established on the
// consuming probe with no per-application wiring.
type flowState struct {
	// Contexts are interned on the identity the profiler keys its CCT
	// dictionary by — no key string is rendered per critical section.
	tokens []TxnCtxt                           // token -> transaction context; token 0 is "none"
	byID   map[profiler.CtxtID][]shmflow.Token // identity -> tokens (hash bucket)
	last   shmflow.Token                       // the token handed out last; see tokenFor

	// Every emulated execution runs its vm thread to completion before
	// another can start, so one slot holds what the tracker's ThreadCtxt
	// reads.
	running    int32         // vm thread executing on the machine
	runningTok shmflow.Token // its producer token

	consumed shmflow.Token // token delivered by OnFlow during the current run
	consumer int32         // vm thread the tracker assigned that token to

	nextLock int   // next vm lock id to hand to a Queue
	nextBase int64 // next vm memory base to hand to a Queue
}

func newFlowState() *flowState {
	return &flowState{
		tokens:   make([]TxnCtxt, 1),
		byID:     make(map[profiler.CtxtID][]shmflow.Token),
		running:  -1,
		consumer: -1,
		nextLock: 1,
		nextBase: 0x1000,
	}
}

// tokenFor interns tc. A thread's executions mostly run under the
// context its last one ran under — and a server's threads under one
// another's — so the token handed out last answers, by the identity of
// the interned local context, before anything is hashed.
func (f *flowState) tokenFor(tc TxnCtxt) shmflow.Token {
	if l := &f.tokens[f.last]; f.last != 0 && l.Local == tc.Local && l.Prefix.Equal(tc.Prefix) {
		return f.last
	}
	tok := f.intern(tc)
	f.last = tok
	return tok
}

func (f *flowState) intern(tc TxnCtxt) shmflow.Token {
	id := tc.ID()
	for _, tok := range f.byID[id] {
		if f.tokens[tok].Prefix.Equal(tc.Prefix) {
			return tok
		}
	}
	tok := shmflow.Token(len(f.tokens))
	f.tokens = append(f.tokens, tc)
	f.byID[id] = append(f.byID[id], tok)
	return tok
}

// initFlow builds the app's flow-detection machinery once all options are
// applied: the machine emulator always (critical sections must execute
// either way), the tracker — and with it emulation, tracing and token
// plumbing — only when the app profiles in Whodunit mode. In the other
// modes critical sections run natively on the machine at direct-execution
// cost, exactly as an unprofiled application would (§7.2).
func (a *App) initFlow() {
	a.machine = vm.NewMachine()
	a.flow = newFlowState()
	if a.mode != ModeWhodunit {
		return
	}
	a.machine.Mode = vm.ModeEmulateCS
	a.tracker = shmflow.NewTracker()
	a.tracker.ThreadCtxt = func(tid int32) shmflow.Token {
		if tid != a.flow.running {
			return 0
		}
		return a.flow.runningTok
	}
	a.tracker.OnFlow = func(ev FlowEvent) { a.flow.consumed, a.flow.consumer = ev.Token, ev.Consumer }
	a.tracker.OnNonFlow = a.machine.SetNonFlow
	a.machine.Tracer = a.tracker
}

func cyclesToTime(c int64) Duration {
	return Duration(c * int64(Second) / DefaultCyclesPerSecond)
}

// ReserveCS reserves a vm lock id and a private 0x10000-word memory
// region (word addresses base..base+0xFFFF) for a custom critical
// section, drawn from the same pool App.NewQueue allocates from. Use it
// when writing programs for Stage.EmulatedCS: the machine's locks and
// memory are shared app-wide, so a hard-coded lock id or address could
// collide with a queue's one_big_mutex or data words — corrupting the
// queue, or worse, tripping the §3.4 allocator rule and demoting the
// shared lock to native execution.
func (a *App) ReserveCS() (lock int, base int64) {
	if a.flow == nil {
		panic("whodunit: ReserveCS needs WithFlowDetection")
	}
	lock = a.flow.nextLock
	a.flow.nextLock++
	base = a.flow.nextBase
	a.flow.nextBase += 0x1_0000
	return lock, base
}

// An emulated critical section executes in two non-blocking halves with
// the CPU charge between them. beginEmulated runs the program on the
// app's shared machine as pr's simulated thread — the probe's current
// transaction context registered as the executing vm thread's token —
// and returns the virtual time its cycles cost. The caller charges that
// to pr's CPU: pr.Compute in runEmulated, pr.ComputeStep in QueuePort's
// frames, which Queue.Push/Pop await. finishEmulated then retires the vm
// thread and, if the tracker detected that the execution consumed
// another thread's context, switches pr to the producer's transaction
// context (§3.5), with no caller involvement.
//
// The machine has already run the program to completion when begin
// returns; the charge only makes the simulated thread pay for it. Other
// simulated threads run their own critical sections on the shared
// machine during that wait and overwrite the tracker's single delivery
// slot, which is why begin, not finish, reads what was delivered.

// emulation is one execution between its halves.
type emulation struct {
	// th is the executing vm thread. A zero emulation spawns one; an
	// emulation used again re-arms the thread it has — same program and
	// entry, fresh id — so a QueuePort allocates none per execution.
	th    *vm.Thread
	adopt shmflow.Token // the flow delivered to th during the run, 0 if none
	live  bool          // begun and not yet finished
}

// beginEmulated starts x: prog runs from entry to its halt with regs (the
// full initial register file, copied in, so the per-execution fast paths
// build no map), and the returned demand is what it cost.
func (a *App) beginEmulated(pr *Probe, x *emulation, prog *vm.Program, entry string, regs *[vm.NumRegs]int64) Duration {
	if a.machine == nil {
		panic("whodunit: emulated critical sections need WithFlowDetection")
	}
	if x.th == nil {
		th, err := a.machine.Spawn(prog, entry)
		if err != nil {
			panic(fmt.Sprintf("whodunit: %s: %v", prog.Name, err))
		}
		x.th = th
	} else {
		a.machine.Rearm(x.th)
	}
	th := x.th
	th.Regs = *regs
	// Token plumbing only matters when the tracker is live (ModeWhodunit);
	// in the other modes the program still executes (at direct cost) and
	// nothing would ever read the token.
	if a.tracker != nil {
		a.flow.consumed, a.flow.consumer = 0, -1
		a.flow.running, a.flow.runningTok = th.ID, a.flow.tokenFor(pr.Txn())
	}
	if err := a.machine.Run(emulatedStepLimit); err != nil {
		panic(fmt.Sprintf("whodunit: %s: %v", prog.Name, err))
	}
	x.adopt = 0
	if a.flow.consumer == th.ID {
		x.adopt = a.flow.consumed
	}
	x.live = true
	return cyclesToTime(th.Cycles)
}

// finishEmulated retires x once its cycles are charged — or while its
// thread, killed before they were, unwinds: runEmulated defers it, and
// QueuePort.settle, on the thread's Defer stack, calls it for that.
func (a *App) finishEmulated(pr *Probe, x *emulation) {
	x.live = false
	a.machine.Reap()
	if a.tracker != nil {
		// The thread has halted and its id is never reused: nothing can
		// name its registers again, so their shadow goes back to the pool.
		a.tracker.Release(x.th.ID)
		// §3.5: the consumer adopts the producer's context.
		if x.adopt != 0 {
			pr.SetTxn(a.flow.tokens[x.adopt])
		}
	}
}

// runEmulated is the blocking driver of one execution on a vm thread of
// its own (Stage.EmulatedCS returns it to the caller, so it is never
// re-armed).
func (a *App) runEmulated(pr *Probe, prog *vm.Program, entry string, regs *[vm.NumRegs]int64) *vm.Thread {
	var x emulation
	d := a.beginEmulated(pr, &x, prog, entry, regs)
	defer a.finishEmulated(pr, &x)
	pr.Compute(d)
	return x.th
}

// Queue is a shared-memory FIFO queue whose Push and Pop critical
// sections execute on the app's emulated machine — Figure 1's
// ap_queue_push / ap_queue_pop as a library type. Under Whodunit
// profiling the shared-memory flow tracker watches those critical
// sections and propagates the pusher's transaction context to the
// popper automatically (§3.5): Pop returns with the popping probe
// switched to the context the element was pushed under, with zero
// per-application wiring. Without WithFlowDetection (or outside
// ModeWhodunit) the queue still transports elements, but — like the
// real application without Whodunit attached — no context propagates.
//
// Push and Pop are the critical-section operations; Put and Get are the
// raw transport face of the same queue for message-passing code that
// propagates context explicitly through Endpoints (ipc synopses) or
// carries it in SEDA elements and events. Put may be called from
// scheduler callbacks; Push, Pop and Get only from their thread's own
// body, with or without a machine, and Pop and Get block it until an
// element is available. A Pop that dequeues an element added with raw
// Put returns it as-is (no emulation, no context inference). Element
// order across the two faces is not defined; within Push/Pop it follows
// Figure 1's array semantics — data[nelts++] on push, data[--nelts] on
// pop — so with more than one element buffered the most recently pushed
// element pops first, exactly as the paper's critical sections behave.
//
// The critical-section operations are written once, as QueuePort's
// frames. A run-to-completion thread (Stage.GoCoro) binds a QueuePort
// once, where its program begins, and calls port.Push(c, v, k) and
// port.Pop(c, k): one call at each site, the continuation k receiving
// the element with the probe already switched to the pusher's context.
// Queue.Push and Queue.Pop await the same frames from the calling
// free-form thread (Stage.Go). An operation is two halves around the CPU
// charge (see beginEmulated). Before it: the probe frame is entered, the
// critical section runs to completion on the machine — the element is in
// or out of the vm-side array — and the flow the tracker delivered is
// captured, because every other thread that enters a critical section
// during the charge overwrites the one delivery slot. After it: the vm
// thread is reaped, its register shadow released, the producer's context
// adopted, the frame exited and, for a push, the semaphore posted.
// Blocking and frame threads mix freely on one queue.
//
// A thread killed (StageCrash) while it is being charged still runs the
// second half, from the port's Coro.Defer (a blocking thread's too: the
// frames it awaits run on its program): nothing of the execution stays
// behind in the machine or the tracker.
// A push cut short this way has stored its element, so its semaphore is
// posted and the element is delivered, under the context it was pushed
// with, to whoever pops next. A pop cut short has removed its element
// from the vm-side array: the element is dropped with the popper that
// took it, as a connection dies with the worker that accepted it. The
// scratch words of killed poppers are taken back when the queue runs
// out of them. One loss is the scheduler's, not the queue's: a popper
// killed after a Put handed it the semaphore and before it ran takes
// that hand-off with it, like any item handed to a dying thread, and the
// element stays buffered in the vm-side array below later pushes.
type Queue struct {
	Name string

	// PushFrame and PopFrame are the probe frames entered around the
	// emulated critical sections; they default to Figure 1's
	// ap_queue_push / ap_queue_pop. A thread's port interns them when it
	// is made (its first Push, Pop or Port): set them before that.
	PushFrame, PopFrame string

	app    *App
	inner  *vclock.Queue
	lockID int
	base   int64
	push   *vm.Program
	pop    *vm.Program
	vals   []any
	free   []int64 // popped vals slots available for reuse
	vmLen  int     // elements currently in the vm-side queue (pushes - pops)

	ports       map[*Probe]*QueuePort // per-thread state of the critical-section faces
	nscratch    int                   // scratch slots handed out so far
	freeScratch []int64               // slots taken back from killed threads
}

// pushedElem is what Push places on the inner simulator queue: a
// semaphore token recording that the element itself lives in the
// vm-side shared memory. Pop uses it to tell vm-backed elements from
// raw Put ones; Get refuses it (a Push'd element must be popped, or
// the vm-side queue would silently desynchronise). It is unexported,
// so it can only ever appear on its own queue's inner queue.
type pushedElem struct{}

// The vm memory layout bounds how much a queue can hold: data slots are
// 2 words each from base+0x10 up to the scratch region at base+0x7000,
// and scratch slots are 0x40 words each up to the next queue's region
// at base+0x10000. Exceeding either would silently corrupt adjacent
// memory, so Push and newScratch fail loudly instead.
const (
	maxQueueDepth     = (0x7000 - 0x10) / 2
	maxQueueConsumers = (0x10000 - 0x7000) / 0x40
)

// NewQueue creates a queue attached to the app. The queue's vm resources
// (memory region, lock id, compiled push/pop programs) are allocated
// lazily on first Push, so queues used only as raw transport cost
// nothing beyond the simulator queue they wrap.
func (a *App) NewQueue(name string) *Queue {
	return a.NewQueueOn(0, name)
}

// NewQueueOn is NewQueue with the underlying simulator queue placed on
// time domain shard%Shards() (see WithShards): a queue belongs to one
// domain, and only that domain's threads may Get from it. Putting from
// another domain goes through an App.Pipe targeting the queue.
func (a *App) NewQueueOn(shard int, name string) *Queue {
	return &Queue{
		Name:      name,
		PushFrame: "ap_queue_push",
		PopFrame:  "ap_queue_pop",
		app:       a,
		inner:     a.ShardSim(shard).NewQueue(name),
	}
}

// Raw returns the underlying simulator queue (for code wiring a
// simulation by hand against vclock primitives).
func (q *Queue) Raw() *vclock.Queue { return q.inner }

// Len reports the number of items currently buffered.
func (q *Queue) Len() int { return q.inner.Len() }

// Put appends v without emulation or context inference; it never blocks
// and may be called from scheduler callbacks. Put is the message-fault
// interception point: under a fault plan (WithFaults) each Put on a
// matching queue draws a seeded verdict and may be dropped, delivered
// twice, or delivered after a delay. This covers every message-passing
// transport in the library — ipc-synopsis traffic between endpoints
// rides these queues too. The shared-memory face (Push/Pop) is never
// faulted: its payload lives in emulated memory, and losing the
// semaphore would desynchronise the vm-side queue rather than model a
// lost message.
func (q *Queue) Put(v any) {
	if in := q.app.injector; in != nil {
		switch act, d := in.Message(q.Name); act {
		case faults.Drop:
			return
		case faults.Dup:
			q.inner.Put(v)
		case faults.Delay:
			q.app.sim.After(d, func() { q.inner.Put(v) })
			return
		}
	}
	q.inner.Put(v)
}

// Get removes and returns the oldest item, blocking th until one is
// available. Like Put, it performs no context inference. Get panics if
// the dequeued element was added with Push: the element's payload lives
// in the vm-side queue, and draining it without the pop critical
// section would silently desynchronise that memory — use Pop.
func (q *Queue) Get(th *Thread) any { return q.checkRaw(th.Get(q.inner)) }

// GetTimeout is Get bounded to d of virtual time: it returns (item,
// true) if one arrives in time, or (nil, false) once d elapses — the
// client-side timeout primitive for retry-with-backoff handling of
// dropped or delayed messages (see Stage.Retry). Like Get, it panics
// on elements added with Push.
func (q *Queue) GetTimeout(th *Thread, d Duration) (any, bool) {
	v, ok := th.GetTimeout(q.inner, d)
	if !ok {
		return nil, false
	}
	return q.checkRaw(v), true
}

// TryGet removes and returns the oldest item if one is buffered; it
// never blocks. Like Get, it panics on elements added with Push.
func (q *Queue) TryGet(th *Thread) (any, bool) {
	v, ok := th.TryGet(q.inner)
	if !ok {
		return nil, false
	}
	return q.checkRaw(v), true
}

// Check applies Get's Push/Pop pairing guard to v, for a frame program
// that blocks with c.Get(q.Raw(), k) and calls Check at the top of k.
// It returns v unchanged.
func (q *Queue) Check(v any) any { return q.checkRaw(v) }

func (q *Queue) checkRaw(v any) any {
	if _, ok := v.(pushedElem); ok {
		panic(fmt.Sprintf("whodunit: queue %q: element added with Push must be dequeued with Pop", q.Name))
	}
	return v
}

// ensure allocates the queue's vm resources: a word-addressed region
// laid out like Figure 1's fd_queue_t ([base] = nelts, data at
// base+0x10, per-consumer scratch words from base+0x7000), a dedicated
// vm lock (one_big_mutex), and the push/pop programs for those
// addresses, assembled for this queue alone: no other queue of the app
// has its lock and region.
func (q *Queue) ensure() {
	if q.push != nil {
		return
	}
	q.lockID, q.base = q.app.ReserveCS()
	q.push = shmflow.QueueProg(fmt.Sprintf("fd_queue_push@%#x", q.base), q.lockID, q.base, false)
	q.pop = shmflow.QueueProg(fmt.Sprintf("fd_queue_pop@%#x", q.base), q.lockID, q.base, true)
}

// newScratch hands out a popping thread's scratch words: a slot taken
// back from a killed thread if there is one, else the next unused one.
func (q *Queue) newScratch() int64 {
	if len(q.freeScratch) == 0 && q.nscratch >= maxQueueConsumers {
		q.sweep()
	}
	if n := len(q.freeScratch); n > 0 {
		s := q.freeScratch[n-1]
		q.freeScratch = q.freeScratch[:n-1]
		return s
	}
	if q.nscratch >= maxQueueConsumers {
		panic(fmt.Sprintf("whodunit: queue %q has more than %d popping threads", q.Name, maxQueueConsumers))
	}
	s := q.base + 0x7000 + int64(q.nscratch)*0x40
	q.nscratch++
	return s
}

// sweep forgets the ports of killed threads and takes their scratch
// slots back. A free-form thread has no exit hook to do this from, so it
// happens when slots run out: a stage that crashes and restarts for ever
// never exhausts them. The vm-side scratch words are only touched while
// an execution runs on the machine, never during its charge, so a slot
// is reusable from the moment its thread is marked dead.
func (q *Queue) sweep() {
	for pr, p := range q.ports {
		if pr.Thread().Dead() {
			if p.scratch != 0 {
				q.freeScratch = append(q.freeScratch, p.scratch)
			}
			delete(q.ports, pr)
		}
	}
	slices.Sort(q.freeScratch) // map order must not pick who gets which slot
}

// Push appends v, executing the ap_queue_push critical section on the
// app's machine under pr's transaction context. The emulation cycles
// are charged to pr's CPU inside the PushFrame probe frame. It is the
// port's Push, awaited by pr's thread.
func (q *Queue) Push(pr *Probe, v any) {
	p := q.Port(pr)
	pr.Thread().Await(func(c *Coro, k Frame) Step { return p.Push(c, v, k) })
}

// Pop blocks until an element is available, executes the ap_queue_pop
// critical section on the app's machine, and returns the element. If
// the flow tracker detected the handoff, pr comes back switched to the
// transaction context the element was pushed under — the §3.5 context
// propagation, with no user involvement. It is the port's Pop, awaited
// by pr's thread.
func (q *Queue) Pop(pr *Probe) any { return pr.Thread().Await(q.Port(pr).Pop) }

// QueuePort is one thread's handle on a queue's critical-section
// operations: it owns what an operation needs per thread — the popper's
// scratch words in vm memory, one vm thread per direction that each
// execution re-arms instead of allocating, the execution in flight, the
// continuation state — so a steady-state Push or Pop allocates no
// closure. A run-to-completion thread takes its port once, in its
// Stage.GoCoro program function; the blocking Queue.Push and Queue.Pop
// look the calling thread's port up and await its Push and Pop.
type QueuePort struct {
	q  *Queue
	pr *Probe

	scratch   int64     // the thread's consume words; 0 until its first pop
	push, pop emulation // at most one is live
	tok       int       // probe token of the live operation's frame

	pushFrame, popFrame FrameID // q.PushFrame and q.PopFrame in the table of pr's stage

	k                      Frame // where the operation in flight continues
	armed                  bool  // settle is on the coroutine's Defer stack
	gotF, pushedF, poppedF Frame // bound once
}

// Port returns the port of pr's thread on q, creating it on first use.
func (q *Queue) Port(pr *Probe) *QueuePort {
	p, ok := q.ports[pr]
	if !ok {
		if q.ports == nil {
			q.ports = make(map[*Probe]*QueuePort)
		}
		frames := pr.Profiler().Frames()
		p = &QueuePort{q: q, pr: pr, pushFrame: frames.ID(q.PushFrame), popFrame: frames.ID(q.PopFrame)}
		p.gotF, p.pushedF, p.poppedF = p.got, p.pushed, p.popped
		q.ports[pr] = p
	}
	return p
}

// beginPush is Push up to the charge: the element takes a vals slot and
// ap_queue_push stores the slot's index in the vm-side array.
func (p *QueuePort) beginPush(v any) Duration {
	q := p.q
	q.ensure()
	if q.vmLen >= maxQueueDepth {
		panic(fmt.Sprintf("whodunit: queue %q exceeds its vm capacity of %d buffered elements", q.Name, maxQueueDepth))
	}
	// Count the element before the charge: a concurrent pusher must see
	// the slot as taken or the capacity guard above could be bypassed.
	q.vmLen++
	p.tok = p.pr.EnterID(p.pushFrame)
	var sd int64
	if n := len(q.free); n > 0 {
		sd = q.free[n-1]
		q.free = q.free[:n-1]
		q.vals[sd] = v
	} else {
		sd = int64(len(q.vals))
		q.vals = append(q.vals, v)
	}
	var regs [vm.NumRegs]int64
	regs[1], regs[4], regs[5] = q.base, sd, sd+1_000_000
	return q.app.beginEmulated(p.pr, &p.push, q.push, "push", &regs)
}

// finishPush is Push after the charge; the semaphore is posted last, as
// ap_queue_push signals not_empty after leaving its critical section.
func (p *QueuePort) finishPush() {
	p.q.app.finishEmulated(p.pr, &p.push)
	p.pr.Exit(p.tok)
	p.q.inner.Put(pushedElem{})
}

// beginPop is Pop from the semaphore to the charge: ap_queue_pop takes
// the newest element's index out of the vm-side array. The pushedElem
// that let the caller in implies its Push already ran ensure(), so the
// vm resources exist; raw-only queues never get here and stay free of vm
// state.
func (p *QueuePort) beginPop() Duration {
	q := p.q
	q.vmLen--
	p.tok = p.pr.EnterID(p.popFrame)
	if p.scratch == 0 {
		p.scratch = q.newScratch()
	}
	var regs [vm.NumRegs]int64
	regs[1], regs[9] = q.base, p.scratch
	return q.app.beginEmulated(p.pr, &p.pop, q.pop, "pop", &regs)
}

// finishPop is Pop after the charge. The value comes from the slot the
// critical section actually popped, so it stays consistent with the
// propagated context.
func (p *QueuePort) finishPop() any {
	q := p.q
	q.app.finishEmulated(p.pr, &p.pop)
	sd := p.pop.th.Regs[4]
	v := q.vals[sd]
	q.vals[sd] = nil
	q.free = append(q.free, sd) // slot reusable by the next Push
	p.pr.Exit(p.tok)
	return v
}

// settle finishes the operation the port's thread was killed in, if it
// was killed in one: see the Queue comment for what becomes of the
// element.
func (p *QueuePort) settle() {
	switch {
	case p.push.live:
		p.finishPush()
	case p.pop.live:
		p.finishPop()
	}
}

// Push is Queue.Push as a frame step for the port's thread: k continues
// (with nil) once the element is pushed.
func (p *QueuePort) Push(c *Coro, v any, k Frame) Step {
	if p.q.app.machine == nil {
		p.q.inner.Put(v)
		return k(c, nil)
	}
	p.arm(c, k)
	return p.pr.ComputeStep(c, p.beginPush(v), p.pushedF)
}

func (p *QueuePort) pushed(c *Coro, _ any) Step {
	p.finishPush()
	return p.resume(c, nil)
}

// Pop is Queue.Pop as a frame step for the port's thread: k receives
// the element, the probe already switched to the context it was pushed
// under (or untouched, for an element added with raw Put).
func (p *QueuePort) Pop(c *Coro, k Frame) Step {
	p.arm(c, k)
	return c.Get(p.q.inner, p.gotF)
}

func (p *QueuePort) got(c *Coro, v any) Step {
	if _, ok := v.(pushedElem); !ok {
		return p.resume(c, v)
	}
	return p.pr.ComputeStep(c, p.beginPop(), p.poppedF)
}

func (p *QueuePort) popped(c *Coro, _ any) Step { return p.resume(c, p.finishPop()) }

// arm notes where the operation continues and, the first time, puts
// settle on the coroutine's Defer stack, so a kill during the charge
// still finishes the section.
func (p *QueuePort) arm(c *Coro, k Frame) {
	if !p.armed {
		p.armed = true
		c.Defer(p.settle)
	}
	p.k = k
}

func (p *QueuePort) resume(c *Coro, v any) Step {
	k := p.k
	p.k = nil
	return k(c, v)
}
