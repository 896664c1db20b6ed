package whodunit

import "whodunit/internal/crosstalk"

// Option configures an App at construction time.
type Option func(*App)

// WithMode sets the profiling mode of every stage of the app.
func WithMode(m Mode) Option {
	return func(a *App) { a.mode = m }
}

// WithCores sets the core count of the app's shared CPU (default 2).
// Stages with a private CPU (StageCPU) are unaffected.
func WithCores(n int) Option {
	return func(a *App) {
		if n < 1 {
			panic("whodunit: WithCores needs at least one core")
		}
		a.cores = n
	}
}

// WithSeed seeds the app's deterministic random number generator,
// available through App.RNG for workload generation.
func WithSeed(seed uint64) Option {
	return func(a *App) { a.seed = seed }
}

// WithCrosstalk attaches a crosstalk monitor to the app: every lock
// created through App.NewLock reports contention to it, classified into
// transaction types by classify. The resulting matrix lands in
// Report.Crosstalk.
func WithCrosstalk(classify func(TxnCtxt) string) Option {
	return func(a *App) {
		if classify == nil {
			panic("whodunit: WithCrosstalk needs a classifier")
		}
		a.monitor = crosstalk.NewMonitor(classify, nil)
	}
}

// WithFlowDetection equips the app with a machine emulator for critical
// sections and — when the app profiles in ModeWhodunit — the
// shared-memory flow tracker of §3, with the token plumbing between
// probe transaction contexts and tracker tokens fully wired. It is pure
// configuration: Queue.Push/Pop and Stage.EmulatedCS then run their
// critical sections under emulation and propagate contexts across
// threads automatically (§3.5), and detected flows land in Report.Flows.
// In the other profiling modes the machine executes the same critical
// sections natively (direct cost, no tracing), as §7.2 prescribes.
func WithFlowDetection() Option {
	return func(a *App) { a.flowWanted = true }
}

// WithShards splits the app's simulated time into n ≥ 1 time domains,
// each with an event queue of its own. Work is placed onto domains with
// StageShard, App.GoShard and App.NewQueueOn, and domains communicate
// exclusively through positive-latency App.Pipes; the minimum pipe
// latency is the lookahead that sets the epoch width. Without a pipe
// the domains share no epoch and run one after another: domain 0 under
// the app's stop condition (RunUntil, RunFor), then the others to
// completion. Every domain runs on the goroutine that runs the app, so
// reports are bit-identical for every shard count — serial and sharded
// runs of the same model diff empty.
//
// The app collapses to one domain (and the shard-indexed placement APIs
// all map to domain 0) when it uses machinery that reads cross-stage
// state from one scheduler's context — crosstalk monitoring
// (WithCrosstalk), flow detection (WithFlowDetection) or a fault plan
// (WithFaults/SetFaults) — and when it declares a zero-latency pipe (see
// App.Pipe). A served app (NewServer) retires its windows from domain
// 0's clock, so it must not be sharded at all.
func WithShards(n int) Option {
	return func(a *App) {
		if n < 1 {
			panic("whodunit: WithShards needs at least one shard")
		}
		a.shards = n
	}
}

// WithFaults installs a deterministic fault plan: stage crashes and
// restarts, message drop/duplication/delay, CPU stalls and injected
// failures, all scheduled in virtual time and drawn from a seeded RNG,
// so a faulted run replays bit-identically. The plan is validated here;
// an invalid plan panics. Timed faults naming stages are resolved when
// the run starts (stages are declared after NewApp), so the plan may
// reference stages not yet declared. See App.SetFaults for installing a
// plan on an already-built app.
func WithFaults(plan *FaultPlan) Option {
	return func(a *App) {
		if err := plan.Validate(); err != nil {
			panic(err)
		}
		a.faultPlan = plan
	}
}

// StageOption configures a single Stage at declaration time.
type StageOption func(*Stage)

// StageCPU gives the stage a private CPU with the given core count
// instead of the app's shared one — a stage on its own machine.
func StageCPU(cores int) StageOption {
	return func(st *Stage) {
		if cores < 1 {
			panic("whodunit: StageCPU needs at least one core")
		}
		st.privateCores = cores
	}
}

// StageShard pins the stage (its threads, private CPU and profiler) to
// time domain k%Shards() — the affinity knob of a sharded app (see
// WithShards). A stage off shard 0 must have a private CPU (StageCPU):
// the app's shared CPU lives on domain 0 and cannot be charged from
// another domain.
func StageShard(k int) StageOption {
	return func(st *Stage) {
		if k < 0 {
			panic("whodunit: StageShard needs a non-negative shard index")
		}
		st.shard = k
	}
}
