package whodunit

import (
	"fmt"
	"io"

	"whodunit/internal/event"
	"whodunit/internal/ipc"
	"whodunit/internal/profiler"
	"whodunit/internal/seda"
	"whodunit/internal/tranctx"
	"whodunit/internal/vm"
)

// Stage is one tier of an App: a named profiling domain bundling a
// Profiler, the threads that run in it, and the context-propagation
// machinery it uses — message endpoints, an event loop, SEDA stages.
// Everything a Stage creates is registered with it, so App.Run can dump
// and stitch the whole application without any manual bookkeeping.
type Stage struct {
	Name string

	app          *App
	prof         *Profiler
	cpu          *CPU // private CPU, nil means the app's shared one
	privateCores int
	shard        int // time domain (StageShard), folded mod App.Shards()

	defaultEP *Endpoint
	endpoints []*Endpoint
	loop      *EventLoop
	seda      map[string]*SEDAStage

	// Thread bookkeeping for fault injection: specs remembers every
	// declared thread body so a crashed stage can be respawned; threads
	// tracks the currently live spawns so a StageCrash knows whom to
	// kill.
	specs   []threadSpec
	threads []*Thread
}

type threadSpec struct {
	name string
	body func(th *Thread, pr *Probe)       // Stage.Go bodies
	coro func(th *Thread, pr *Probe) Frame // Stage.GoCoro programs
}

func newStage(a *App, name string, opts ...StageOption) *Stage {
	st := &Stage{Name: name, app: a}
	for _, opt := range opts {
		opt(st)
	}
	st.shard %= a.shards
	if st.shard != 0 && st.privateCores == 0 {
		panic(fmt.Sprintf("whodunit: stage %q is pinned to shard %d but would share the app CPU, which lives on shard 0; give it StageCPU", name, st.shard))
	}
	st.prof = profiler.New(name, a.mode)
	if st.privateCores > 0 {
		st.cpu = st.sim().NewCPU(name+"-cpu", st.privateCores)
	}
	return st
}

// Shard reports the time domain the stage is pinned to (0 unless
// StageShard was given on a sharded app).
func (st *Stage) Shard() int { return st.shard }

// sim returns the simulator of the stage's time domain.
func (st *Stage) sim() *Sim { return st.app.ShardSim(st.shard) }

// App returns the owning app.
func (st *Stage) App() *App { return st.app }

// Mode returns the stage's profiling mode, the app's (WithMode).
func (st *Stage) Mode() Mode { return st.app.mode }

// Profiler returns the stage's profiler.
func (st *Stage) Profiler() *Profiler { return st.prof }

// CPU returns the CPU this stage's probes charge: its private one
// (StageCPU) or the app's shared CPU.
func (st *Stage) CPU() *CPU {
	if st.cpu != nil {
		return st.cpu
	}
	return st.app.CPU()
}

// Go starts a simulated thread in this stage. The body receives the
// thread and a ready probe charging the stage's CPU; the probe is also
// attached to the thread (Thread.Data) so crosstalk monitoring can
// resolve the thread's transaction context.
func (st *Stage) Go(name string, body func(th *Thread, pr *Probe)) *Thread {
	st.specs = append(st.specs, threadSpec{name: name, body: body})
	return st.spawn(name, body)
}

// spawn starts a stage thread without recording a new spec — the shared
// path of Go and of crash-restart respawns.
func (st *Stage) spawn(name string, body func(th *Thread, pr *Probe)) *Thread {
	t := st.sim().Go(name, func(th *Thread) {
		pr := st.prof.NewProbe(th, st.CPU())
		th.Data = pr
		body(th, pr)
	})
	st.threads = append(st.threads, t)
	return t
}

// GoCoro starts a run-to-completion thread in this stage: program is
// called once, when the thread starts, with the thread and a ready
// probe (same timing as a Go body's prologue), and returns the frame
// the program begins at. Blocking must go through the Coro methods —
// c.Get/c.Sleep/c.Lock and, for profiled CPU demand, Probe.ComputeStep.
// Like Go bodies, GoCoro programs are recorded for crash respawns.
func (st *Stage) GoCoro(name string, program func(th *Thread, pr *Probe) Frame) *Thread {
	st.specs = append(st.specs, threadSpec{name: name, coro: program})
	return st.spawnCoro(name, program)
}

// spawnCoro is spawn for GoCoro programs: the bootstrap frame creates
// the probe at thread start and tail-transfers into the program.
func (st *Stage) spawnCoro(name string, program func(th *Thread, pr *Probe) Frame) *Thread {
	t := st.sim().GoCoro(name, func(c *Coro, _ any) Step {
		th := c.Thread()
		pr := st.prof.NewProbe(th, st.CPU())
		th.Data = pr
		return c.Goto(program(th, pr))
	})
	st.threads = append(st.threads, t)
	return t
}

// BeginTxn starts a fresh transaction on pr: the probe switches to the
// context consisting of a single call-path hop of this stage through
// path — the §2 "new transaction" established where a request enters
// the system (e.g. the accept point of a listener thread). It replaces
// direct tranctx table manipulation in application code.
func (st *Stage) BeginTxn(pr *Probe, path ...string) TxnCtxt {
	tc := TxnCtxt{Local: st.prof.Table.Root().Extend(tranctx.CallHop(st.Name, path...))}
	pr.SetTxn(tc)
	return tc
}

// WithTxn runs fn with pr switched to tc, restoring the previous
// transaction context afterwards (even if fn panics) — a scoped
// alternative to paired SetTxn calls.
func (st *Stage) WithTxn(pr *Probe, tc TxnCtxt, fn func()) {
	prev := pr.Txn()
	pr.SetTxn(tc)
	defer pr.SetTxn(prev)
	fn()
}

// CriticalSection executes fn while pr's thread holds l exclusively.
// Locks created through App.NewLock report the wait to the crosstalk
// monitor (§6) with the waiting and holding transaction contexts
// resolved from the threads' probes — so a lock-protected region
// written this way is fully observed with no further wiring.
func (st *Stage) CriticalSection(pr *Probe, l *Lock, fn func()) {
	th := pr.Thread()
	th.Lock(l, Exclusive)
	defer th.Unlock(l)
	fn()
}

// EmulatedCS runs prog (assembled with AssembleProgram) from entry on
// the app's machine emulator as pr's thread: registers are preloaded
// from regs, pr's transaction context is registered with the flow
// tracker for the duration, and the cycles consumed are charged to
// pr's CPU. This is the escape hatch for custom shared-memory
// structures, on the emulation Queue.Push/Pop use. Requires
// WithFlowDetection.
//
// The machine's lock ids and word-addressed memory are shared
// app-wide: App.NewQueue claims lock ids from 1 upward and
// 0x10000-word regions from 0x1000 upward as queues are first pushed
// to. Reserve a lock and region for each custom structure with
// App.ReserveCS instead of hard-coding them.
func (st *Stage) EmulatedCS(pr *Probe, prog *Program, entry string, regs map[byte]int64) *VMThread {
	var rf [vm.NumRegs]int64
	for r, v := range regs {
		rf[r] = v
	}
	return st.app.runEmulated(pr, prog, entry, &rf)
}

// Endpoint returns the stage's default message endpoint, creating and
// registering it on first use. Its sends are included in the stage's
// dump, so cross-stage request edges appear in the stitched graph.
func (st *Stage) Endpoint() *Endpoint {
	if st.defaultEP == nil {
		st.defaultEP = st.NewEndpoint()
	}
	return st.defaultEP
}

// NewEndpoint creates and registers an additional endpoint (one per peer
// connection, for stages that talk to several others).
func (st *Stage) NewEndpoint() *Endpoint {
	e := ipc.NewEndpoint(st.Name)
	st.endpoints = append(st.endpoints, e)
	return e
}

// Conn wraps a fresh registered endpoint around a byte stream, for
// profiling across real transports (pipes, sockets).
func (st *Stage) Conn(rw io.ReadWriter) *Conn {
	return &Conn{E: st.NewEndpoint(), RW: rw}
}

// EventLoop returns the stage's event loop, created on first use and
// interning contexts in the stage's table. Bind it to the dispatching
// thread's probe with BindLoop.
func (st *Stage) EventLoop() *EventLoop {
	if st.loop == nil {
		st.loop = event.NewLoop(st.Name, st.prof.Table)
	}
	return st.loop
}

// BindLoop ties the stage's event loop to pr: before each handler runs,
// pr switches to the freshly computed transaction context, so samples
// taken in the handler land in the per-context tree.
func (st *Stage) BindLoop(pr *Probe) *EventLoop {
	l := st.EventLoop()
	l.OnDispatch = func(curr *Ctxt) { pr.SetLocal(curr) }
	return l
}

// SEDAStage declares (or fetches) a named SEDA stage within this stage's
// program, with in as its input queue.
func (st *Stage) SEDAStage(name string, in seda.Putter) *SEDAStage {
	if ss, ok := st.seda[name]; ok {
		return ss
	}
	if st.seda == nil {
		st.seda = make(map[string]*SEDAStage)
	}
	ss := seda.NewStage(st.Name, name, in)
	st.seda[name] = ss
	return ss
}

// Worker returns a SEDA worker for ss bound to pr: each dequeued
// element switches pr to the element's freshly computed context.
func (st *Stage) Worker(ss *SEDAStage, pr *Probe) *SEDAWorker {
	w := seda.NewWorker(ss, st.prof.Table)
	w.OnDispatch = func(curr *Ctxt) { pr.SetLocal(curr) }
	return w
}

// Inject enqueues external stimulus data to SEDA stage ss with the root
// context — the feed for the first stage of a pipeline.
func (st *Stage) Inject(ss *SEDAStage, data any) { seda.Inject(st.prof.Table, ss, data) }

// Dump captures the stage's profile (and every registered endpoint) for
// post-mortem stitching; App.Run does this automatically.
func (st *Stage) Dump() StageDump { return DumpStage(st.prof, st.endpoints...) }
