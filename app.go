package whodunit

import (
	"fmt"

	"whodunit/internal/faults"
	"whodunit/internal/par"
	"whodunit/internal/vclock"
)

// RNG is the deterministic random number generator used by workloads.
type RNG = vclock.RNG

// App is the composition root of a Whodunit run: it owns the virtual-time
// simulator and a set of named Stages (tiers), and wires the cross-cutting
// machinery — crosstalk monitoring, shared-memory flow detection, and the
// post-mortem stitching of per-stage profiles — so that applications are
// declared rather than hand-plumbed.
//
//	app := whodunit.NewApp("shop", whodunit.WithMode(whodunit.ModeWhodunit))
//	web := app.Stage("web")
//	db := app.Stage("db", whodunit.StageCPU(4))
//	... declare threads with web.Go / db.Go ...
//	report := app.Run()
//	report.Text(os.Stdout)
//
// App.Run drives the simulation to completion, shuts it down, and returns
// a unified Report carrying per-stage profiles, the crosstalk matrix,
// detected flows, and the automatically stitched transaction graph.
type App struct {
	Name string

	sim   *Sim // time domain 0, the "home" domain
	group *vclock.Group
	cpu   *CPU // shared CPU, created lazily
	cores int
	mode  Mode
	seed  uint64
	rng   *RNG

	// Sharded simulated time (WithShards): shards is the time-domain
	// count, the WithShards request (1 by default) after the
	// serial-collapse rules, pipes the declared cross-domain channels
	// (resolved into vclock links when the run starts), placedOffZero
	// whether any stage, thread or queue has been placed on a domain
	// other than 0.
	shards        int
	pipes         []*Pipe
	placedOffZero bool

	stages  []*Stage
	byName  map[string]*Stage
	monitor *CrosstalkMonitor
	machine *Machine
	tracker *FlowTracker

	flowWanted bool
	flow       *flowState

	// Fault injection (WithFaults / SetFaults): the plan as configured
	// and the seeded injector that evaluates it during the run.
	faultPlan *faults.Plan
	injector  *faults.Injector

	ran bool
}

// NewApp returns an app with a fresh simulator, configured by opts. The
// defaults are ModeWhodunit profiling, a 2-core shared CPU, the standard
// sampling interval, one time domain, and no crosstalk or flow
// machinery.
func NewApp(name string, opts ...Option) *App {
	a := &App{
		Name:   name,
		cores:  2,
		mode:   ModeWhodunit,
		shards: 1,
		byName: make(map[string]*Stage),
	}
	for _, opt := range opts {
		opt(a)
	}
	// Resolve the time-domain count, now that every option is known.
	// Crosstalk monitoring, flow detection and fault plans all read or
	// mutate state across the whole app from one scheduler's context, so
	// any of them collapses the run to a single domain — the documented
	// serial fallback, not an error.
	if a.monitor != nil || a.flowWanted || a.faultPlan != nil {
		a.shards = 1
	}
	a.group = vclock.NewGroup(a.shards)
	a.sim = a.group.Domain(0)
	a.rng = vclock.NewRNG(a.seed)
	// Options are pure configuration; the cross-cutting machinery is
	// built here, once the mode and flow settings are both known — so
	// option order never matters.
	if a.flowWanted {
		a.initFlow()
	}
	if a.faultPlan != nil {
		a.SetFaults(a.faultPlan)
	}
	return a
}

// Sim returns the app's simulator — time domain 0 of a sharded app —
// for direct access to scheduling primitives (At, After, RunFor, ...).
func (a *App) Sim() *Sim { return a.sim }

// Shards reports the app's effective time-domain count: the WithShards
// request after the serial-collapse rules (see WithShards). Application
// models size their round-robin partitioning from it, so a collapsed
// app transparently places everything on domain 0.
func (a *App) Shards() int { return a.shards }

// EpochStats reports what the epoch loop of a sharded run did: epochs,
// domains active in them and messages merged at barriers. All zero for
// a run without latency-bearing pipes, which needs no epochs. It is
// telemetry about the run, never part of the Report.
func (a *App) EpochStats() EpochStats { return a.group.Stats() }

// KernelCounters reports what the simulator did, summed over the app's
// time domains: events scheduled and dispatched by kind, what the event
// queue paid, sleeps served in place, frame steps and thread switches.
// Like EpochStats it is telemetry about the run, never part of the
// Report, and repeats exactly at a fixed seed and layout.
func (a *App) KernelCounters() KernelCounters { return a.group.Counters() }

// ShardSim returns the simulator of time domain k%Shards(). The modulo
// makes placement written against a sharded layout valid verbatim on a
// collapsed app: every index maps to domain 0.
func (a *App) ShardSim(k int) *Sim {
	if k < 0 {
		panic("whodunit: negative shard index")
	}
	s := a.group.Domain(k % a.shards)
	// The flag gates pre-run configuration (zero-latency pipe fallback,
	// SetFaults), so placement during the run leaves it alone.
	if s != a.sim && !a.ran {
		a.placedOffZero = true
	}
	return s
}

// GoShard starts a raw simulated thread on time domain k%Shards() — how
// load generators partition clients round-robin across shards. Threads
// on different domains may only communicate through Pipes; everything a
// thread touches (queues, CPUs, stages) must live on its own domain.
func (a *App) GoShard(k int, name string, body func(*Thread)) *Thread {
	return a.ShardSim(k).Go(name, body)
}

// GoCoroShard is GoShard for run-to-completion bodies: the thread's
// program is the resumable frame f, executed by the domain's dispatcher
// with no coroutine switch per blocking operation (see Sim.GoCoro).
// This is the shape for very large client populations — a frame-based
// client costs a small struct, not a coroutine and its stack.
func (a *App) GoCoroShard(k int, name string, f Frame) *Thread {
	return a.ShardSim(k).GoCoro(name, f)
}

// Pipe declares a unidirectional cross-domain channel: Send(v) from
// shard `from`'s execution delivers v onto dst after `latency` of
// virtual time. Pipes are the only legal communication edge between
// time domains; their minimum latency is the group's lookahead (the
// epoch width), so model a real transport hop — network latency, client
// think time — rather than an infinitesimal delay. Declaration order
// matters: it is part of the deterministic barrier-merge key, so
// declare pipes in a fixed order (and before the run starts).
//
// A non-positive latency provides no lookahead; it is accepted as the
// safe serial fallback — the app collapses to one time domain — but
// only while nothing has been placed off shard 0 yet.
func (a *App) Pipe(from int, dst *Queue, latency Duration) *Pipe {
	if a.ran {
		panic("whodunit: Pipe after run started")
	}
	if from < 0 {
		panic("whodunit: negative shard index")
	}
	if latency <= 0 {
		if a.placedOffZero {
			panic(fmt.Sprintf("whodunit: app %q: zero-latency pipe onto %q with work already placed off shard 0 (no lookahead to shard by); give every pipe positive latency or declare zero-latency pipes first", a.Name, dst.Name))
		}
		a.shards = 1
	}
	p := &Pipe{app: a, from: from, dst: dst, latency: latency}
	a.pipes = append(a.pipes, p)
	return p
}

// Pipe is a declared cross-domain channel; see App.Pipe. Until the run
// starts it is only a declaration — Send panics before then.
type Pipe struct {
	app     *App
	from    int
	dst     *Queue
	latency Duration
	link    *vclock.Link
}

// Send delivers v onto the pipe's destination queue after the pipe's
// latency. It may only be called from the source shard's execution (its
// threads or scheduler callbacks), once the run has started.
func (p *Pipe) Send(v any) {
	if p.link == nil {
		panic(fmt.Sprintf("whodunit: Pipe.Send onto %q before the app run started", p.dst.Name))
	}
	p.link.Send(v)
}

// armPipes resolves pipe declarations into vclock links once the run
// starts, after every zero-latency collapse has settled — so source
// indexes fold with the same modulo as every other placement.
func (a *App) armPipes() {
	for _, p := range a.pipes {
		src := a.group.Domain(p.from % a.shards)
		p.link = a.group.Connect(src, p.dst.inner, p.latency)
	}
}

// RNG returns the app's seeded random number generator (see WithSeed).
func (a *App) RNG() *RNG { return a.rng }

// CPU returns the app's shared CPU, creating it on first use.
func (a *App) CPU() *CPU {
	if a.cpu == nil {
		a.cpu = a.sim.NewCPU(a.Name+"-cpu", a.cores)
	}
	return a.cpu
}

// Stage declares (or, called without options, fetches) the named stage.
// Redeclaring an existing stage with options panics — a stage is
// configured exactly once.
func (a *App) Stage(name string, opts ...StageOption) *Stage {
	if st, ok := a.byName[name]; ok {
		if len(opts) > 0 {
			panic(fmt.Sprintf("whodunit: stage %q already declared", name))
		}
		return st
	}
	st := newStage(a, name, opts...)
	a.byName[name] = st
	a.stages = append(a.stages, st)
	return st
}

// Stages returns the app's stages in declaration order.
func (a *App) Stages() []*Stage {
	out := make([]*Stage, len(a.stages))
	copy(out, a.stages)
	return out
}

// NewLock creates a lock; if the app has a crosstalk monitor
// (WithCrosstalk), the lock reports contention to it.
func (a *App) NewLock(name string) *Lock {
	l := a.sim.NewLock(name)
	if a.monitor != nil {
		l.Observer = a.monitor
	}
	return l
}

// Crosstalk returns the app's crosstalk monitor, or nil without
// WithCrosstalk.
func (a *App) Crosstalk() *CrosstalkMonitor { return a.monitor }

// Machine returns the app's machine emulator, or nil without
// WithFlowDetection. The machine is owned by the app: Queue.Push/Pop
// and Stage.EmulatedCS run programs on it with the token plumbing
// already wired; read TotalCycles from it for emulation-cost accounting.
func (a *App) Machine() *Machine { return a.machine }

// FlowTracker returns the app's flow tracker, or nil unless the app was
// built with WithFlowDetection and profiles in ModeWhodunit. Its
// ThreadCtxt, OnFlow and OnNonFlow hooks are owned by the app's token
// plumbing; read detected flows through Flows or Report.Flows.
func (a *App) FlowTracker() *FlowTracker { return a.tracker }

// FlowStats returns the flow tracker's counters — critical sections and
// instructions traced, flushes, consumes and flows, and how large its
// dictionary is — or the zero value when the app has no tracker.
func (a *App) FlowStats() FlowStats {
	if a.tracker == nil {
		return FlowStats{}
	}
	return a.tracker.Stats()
}

// Run drives the simulation until no events remain, unwinds surviving
// threads, and returns the unified report — per-stage profiles stitched
// into the global transaction graph, plus crosstalk and flow data.
func (a *App) Run() *Report { return a.run(nil) }

// RunUntil is Run with a stop predicate, checked between simulator
// events (e.g. "all requests served").
func (a *App) RunUntil(stop func() bool) *Report { return a.run(stop) }

// RunFor is Run bounded to d of virtual time. On a sharded app with
// pipes the bound is checked against the group clock at epoch barriers,
// so the run stops at the first barrier past the bound; without pipes it
// bounds domain 0, and the other domains then run to completion (see
// WithShards).
func (a *App) RunFor(d Duration) *Report {
	end := a.group.Now().Add(d)
	return a.run(func() bool { return a.group.Now() >= end })
}

func (a *App) run(stop func() bool) *Report {
	a.start()
	a.group.RunUntil(stop)
	rep, err := a.finish()
	if err != nil {
		// An injected (or genuine) panic in the simulation aborts the run
		// loudly; only a supervised Server carries on past one.
		panic(err)
	}
	return rep
}

// start readies the app to run, once: pipes become links and the fault
// plan's timed faults are scheduled.
func (a *App) start() {
	if a.ran {
		panic(fmt.Sprintf("whodunit: app %q already run", a.Name))
	}
	a.ran = true
	a.armPipes()
	a.armFaults()
}

// finish ends a run that stopped or crashed: surviving threads unwind,
// and whatever the profiles accumulated is stitched into the returned
// (partial, on a crash) report. A crash of a simulated thread or
// scheduler callback comes back as the error.
func (a *App) finish() (*Report, error) {
	var err error
	if c := a.group.Crashed(); c != nil {
		err = c
	}
	a.group.Shutdown()
	return a.Report(), err
}

// stageReport reads every stage's profile into a Report that has only
// its stages set: through Profiler.Retire if retire (ending a window),
// else Profiler.View. Both calls inline, so no Snapshot is allocated. A
// retired snapshot goes back to its profiler (Profiler.Recycle) as soon
// as NewStageReport has dumped it: the dump copies every record and
// shares only immutable strings, so the next window refills the trees.
func (a *App) stageReport(retire bool) *Report {
	srs := make([]StageReport, 0, len(a.stages))
	for _, st := range a.stages {
		snap := st.prof.View()
		if retire {
			snap = st.prof.Retire()
		}
		srs = append(srs, NewStageReport(snap, st.endpoints...))
		if retire {
			st.prof.Recycle(snap)
		}
	}
	return NewReport(a.Name, srs...)
}

// Arrivals installs an open-loop arrival process: arrive(i) is invoked
// in scheduler context at exponentially distributed virtual-time
// intervals with the given mean, i counting arrivals from 0. The
// process draws from its own RNG stream (derived from the app seed and
// name), so adding an arrival process never perturbs other seeded
// draws. It reschedules itself forever — open-loop apps must be run
// with a stop condition (RunFor, RunUntil or a Server).
//
// arrive runs in scheduler context and must not block; typically it
// puts work on a Queue for stage threads to consume.
func (a *App) Arrivals(name string, mean Duration, arrive func(i int64)) {
	if mean <= 0 {
		panic("whodunit: Arrivals needs a positive mean interarrival time")
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	rng := vclock.NewRNG(a.seed ^ h)
	var n int64
	var next func()
	next = func() {
		i := n
		n++
		arrive(i)
		a.sim.After(rng.Exp(mean), next)
	}
	a.sim.After(rng.Exp(mean), next)
}

// RunApps runs independent apps concurrently across GOMAXPROCS workers
// and returns their reports in input order. Each app owns its simulator,
// profilers, context tables and seeded RNG (WithSeed), so a parallel
// sweep produces bit-identical reports to running the same apps one by
// one — this is how the experiment harness regenerates every
// client-count point of a figure at once. Apps must not share mutable
// state (queues, locks, stages); read-only inputs like a generated
// workload trace are fine.
func RunApps(apps ...*App) []*Report {
	reports := make([]*Report, len(apps))
	par.Do(len(apps), func(i int) { reports[i] = apps[i].Run() })
	return reports
}

// Report assembles the current state of every stage into a unified
// Report, stitching the per-stage profiles into the transaction graph.
// App.Run calls it automatically; call it directly only when driving the
// simulator by hand through App.Sim.
func (a *App) Report() *Report {
	rep := a.stageReport(false)
	rep.Elapsed = Duration(a.group.Now())
	if a.monitor != nil {
		rep.Crosstalk = a.monitor.Pairs()
	}
	if a.tracker != nil {
		rep.Flows = a.tracker.Flows()
	}
	if a.injector != nil {
		if s := a.injector.Stats(); !s.Zero() {
			rep.Faults = &s
		}
	}
	return rep
}
