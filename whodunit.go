// Package whodunit is a transactional profiler for multi-tier
// applications, reproducing Chanda, Cox & Zwaenepoel, "Whodunit:
// Transactional Profiling for Multi-Tier Applications" (EuroSys 2007).
//
// A *transaction* is the execution of one client request through the
// stages of a multi-tier application; its *transaction context* is the
// concatenation of the per-stage execution paths (call paths,
// event-handler sequences, SEDA stages). Whodunit annotates statistical
// call-path profile samples with transaction contexts, so the cost of,
// say, a database sort can be attributed to the front-end request type
// that triggered it, and measures *crosstalk* — lock waiting attributed
// to the (waiting, holding) transaction pair.
//
// # Composing applications
//
// The primary API is the App/Stage runtime: declare an App, declare its
// Stages (tiers), start simulated threads with Stage.Go, and let App.Run
// drive the simulation and return a unified Report — per-stage profiles,
// the crosstalk matrix, detected shared-memory flows, and the stitched
// end-to-end transaction graph, with Text, JSON and DOT renderers:
//
//	app := whodunit.NewApp("shop",
//		whodunit.WithMode(whodunit.ModeWhodunit),
//		whodunit.WithCores(2))
//	web, db := app.Stage("web"), app.Stage("db")
//	reqQ, respQ := app.NewQueue("req"), app.NewQueue("resp")
//	db.Go("db", func(th *whodunit.Thread, pr *whodunit.Probe) { ... })
//	web.Go("web", func(th *whodunit.Thread, pr *whodunit.Probe) { ... })
//	report := app.Run() // stitching happens automatically
//	report.Text(os.Stdout)
//
// Stages bundle the context-propagation machinery: Stage.Endpoint and
// Stage.Conn for messaging tiers, Stage.EventLoop/BindLoop for
// event-driven programs, Stage.SEDAStage/Worker/Inject for staged
// pipelines, App.NewQueue for shared-memory queues whose Push/Pop
// critical sections run on the emulated machine so the flow tracker
// propagates the pusher's context to the popper automatically (§3.5),
// Stage.CriticalSection for crosstalk-observed lock-protected regions,
// and Stage.BeginTxn/WithTxn for transaction-context scoping without
// touching the context tables. Functional options (WithMode, WithCores,
// WithSeed, WithCrosstalk, WithFlowDetection, WithFaults, WithShards;
// per stage StageCPU and StageShard) select the run configuration —
// they are pure configuration; all machinery is built and wired by
// NewApp. NewServer serves an app as a continuous profiler, windowed by
// ServeConfig.Window. RunApps sweeps independent Apps across GOMAXPROCS
// workers with reports bit-identical to serial runs.
//
// # Building blocks
//
// The remainder of this file re-exports the underlying building blocks'
// types for programs that wire stages by hand. The constructors the
// App/Stage primitives superseded (NewProfiler, NewEndpoint,
// NewEventLoop, NewSEDAStage, NewSEDAWorker, NewCrosstalkMonitor, the
// SimQueue alias) are gone with the hand-wiring they required — declare
// an App and use its stages instead:
//
//   - Sim, Thread, CPU, Lock — the deterministic virtual-time
//     substrate everything runs on (internal/vclock);
//   - Profiler, Probe, TxnCtxt — the csprof-style sampling profiler with
//     per-transaction-context calling context trees (internal/profiler,
//     internal/cct, internal/tranctx);
//   - EventLoop / SEDA worker — libevent- and SEDA-style libraries with
//     automatic context propagation (internal/event, internal/seda);
//   - Endpoint / Conn — message send/receive wrappers piggy-backing
//     4-byte context synopses across tiers (internal/ipc);
//   - CrosstalkMonitor — the §6 interference matrix (internal/crosstalk);
//   - flow detection for implicit shared-memory handoff on the bundled
//     machine emulator (internal/vm, internal/shmflow);
//   - DumpStage, ReadStageDump and ReportFromDumps — a stage's profile
//     as a dump, and the unified report stitched post-mortem from a set
//     of dumps (internal/stitch).
//
// See examples/quickstart for a complete two-stage walkthrough, and
// cmd/whodunit-bench for the paper's full evaluation.
package whodunit

import (
	"io"

	"whodunit/internal/cct"
	"whodunit/internal/crosstalk"
	"whodunit/internal/event"
	"whodunit/internal/ipc"
	"whodunit/internal/profiler"
	"whodunit/internal/seda"
	"whodunit/internal/shmflow"
	"whodunit/internal/stitch"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
	"whodunit/internal/vm"
)

// Simulation substrate.
type (
	// Sim is the deterministic discrete-event simulator.
	Sim = vclock.Sim
	// Thread is a simulated thread.
	Thread = vclock.Thread
	// CPU is a multi-core processor resource.
	CPU = vclock.CPU
	// Lock is a reader/writer lock with wait observation.
	Lock = vclock.Lock
	// Time is a point in virtual time (nanoseconds).
	Time = vclock.Time
	// Duration is a span of virtual time (nanoseconds).
	Duration = vclock.Duration
	// EpochStats counts what a sharded run's epoch loop did (see
	// App.EpochStats).
	EpochStats = vclock.GroupStats
	// KernelCounters is the simulator's account of a run (see
	// App.KernelCounters).
	KernelCounters = vclock.Counters
)

// Re-exported duration units.
const (
	Nanosecond  = vclock.Nanosecond
	Microsecond = vclock.Microsecond
	Millisecond = vclock.Millisecond
	Second      = vclock.Second
	Minute      = vclock.Minute
)

// Exclusive is the lock mode of a writer.
const Exclusive = vclock.Exclusive

// Run-to-completion scheduling (Sim.GoCoro, App.GoCoroShard,
// Stage.GoCoro): thread bodies written as resumable state machines are
// executed by the dispatcher with no coroutine switch per blocking
// operation and no stack per thread.
type (
	// Coro is the execution state of a run-to-completion thread.
	Coro = vclock.Coro
	// Frame is one resumable segment of a run-to-completion body.
	Frame = vclock.Frame
	// Step is the receipt a Frame returns from its one scheduling step.
	Step = vclock.Step
)

// Profiler core.
type (
	// Profiler is a per-stage transactional profiler.
	Profiler = profiler.Profiler
	// Probe is a per-thread instrumentation handle.
	Probe = profiler.Probe
	// Mode selects Off / Sampling (csprof) / Whodunit / Instrumented
	// (gprof) profiling.
	Mode = profiler.Mode
	// TxnCtxt is a transaction context (remote synopsis prefix + local
	// interned context).
	TxnCtxt = profiler.TxnCtxt
	// Ctxt is an interned local transaction context chain.
	Ctxt = tranctx.Ctxt
	// FrameID is a frame name interned by one stage:
	// st.Profiler().Frames().ID(name), entered with Probe.EnterID. It
	// means nothing to another stage's probes.
	FrameID = cct.FrameID
)

// Profiling modes.
const (
	ModeOff          = profiler.ModeOff
	ModeSampling     = profiler.ModeSampling
	ModeWhodunit     = profiler.ModeWhodunit
	ModeInstrumented = profiler.ModeInstrumented
)

// ParseMode parses a mode name ("off", "csprof", "whodunit", "gprof")
// into a Mode; Mode also implements flag.Value, so it can be bound to a
// command-line flag directly with flag.Var.
var ParseMode = profiler.ParseMode

// Event-driven and SEDA libraries.
type (
	// EventLoop is a libevent-style loop with context propagation.
	EventLoop = event.Loop
	// Event is a continuation carrying its transaction context.
	Event = event.Event
	// EventHandler is a named handler.
	EventHandler = event.Handler
	// SEDAStage is a named stage with an input queue.
	SEDAStage = seda.Stage
	// SEDAWorker tracks a stage worker's current context.
	SEDAWorker = seda.Worker
	// SEDAElem is a stage-queue element with its captured context.
	SEDAElem = seda.Elem
)

// Distribution.
type (
	// Endpoint tracks sent synopsis chains for request/response
	// inference.
	Endpoint = ipc.Endpoint
	// Msg is a message with its piggy-backed synopsis chain.
	Msg = ipc.Msg
	// Conn wraps an Endpoint around a byte stream.
	Conn = ipc.Conn
)

// Crosstalk.
type (
	// CrosstalkMonitor accumulates the (waiter, holder) wait matrix.
	CrosstalkMonitor = crosstalk.Monitor
	// CrosstalkPair is one matrix row.
	CrosstalkPair = crosstalk.PairStat
)

// Shared-memory flow detection. Apps built with WithFlowDetection own
// their machine and tracker (App.Machine, App.FlowTracker) with the
// token plumbing pre-wired; the constructors that used to hand out raw
// machines and trackers (NewMachine, NewFlowTracker) are gone with the
// hand-wiring they required.
type (
	// Machine is the bundled CPU emulator for critical sections.
	Machine = vm.Machine
	// FlowTracker runs the §3 shared-memory flow detection algorithm.
	FlowTracker = shmflow.Tracker
	// FlowEvent is one detected producer→consumer transaction flow.
	FlowEvent = shmflow.FlowEvent
	// FlowStats are the flow tracker's counters (see App.FlowStats).
	FlowStats = shmflow.Stats
	// FlowToken identifies a transaction context opaquely to the flow
	// tracker.
	FlowToken = shmflow.Token
	// Program is an assembled VM program, runnable with Stage.EmulatedCS.
	Program = vm.Program
	// VMThread is one thread of the machine emulator.
	VMThread = vm.Thread
)

// AssembleProgram assembles VM assembly text into a Program for
// Stage.EmulatedCS (custom shared-memory critical sections).
var AssembleProgram = vm.Assemble

// Stitching.
type (
	// StageDump is one stage's serialized profile.
	StageDump = stitch.StageDump
	// TreeDump is one serialized per-context CCT within a StageDump.
	TreeDump = stitch.TreeDump
	// TransactionGraph is the stitched end-to-end profile. Its nodes
	// index the stage dumps it was stitched from: a node's CCT is its
	// stage dump's TreeDump.
	TransactionGraph = stitch.Graph
)

// DumpStage captures a stage's profiler (plus endpoints) for post-mortem
// stitching.
func DumpStage(p *Profiler, eps ...*Endpoint) StageDump { return stitch.Dump(p.View(), eps...) }

// ReadStageDump decodes a stage dump from JSON.
func ReadStageDump(r io.Reader) (StageDump, error) { return stitch.DecodeDump(r) }
