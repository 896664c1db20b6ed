package vclock

// EngineKind selects how coroutine threads (Sim.GoCoro) execute their
// resumable programs. The dispatcher steps every thread's program inline;
// a free-form body (Sim.Go) is always the one frame driveBody over a
// runtime coroutine with a stack of its own, so only structured,
// Frame-based programs have a choice of engine.
type EngineKind uint8

const (
	// EngineCoro runs each coroutine program to completion on the
	// dispatching stack: the event loop pops a wake and invokes the
	// thread's continuation directly — no coroutine switch and no stack
	// per thread. This is the default engine, with or without -race.
	EngineCoro EngineKind = iota
	// EngineGoroutine runs each coroutine program inside a free-form
	// body (the name predates runtime coroutines: such a thread is an
	// iter.Pull coroutine, not a scheduled goroutine), which parks
	// through the thread's driveBody each time the program blocks. The
	// event order is identical by construction — the frames take exactly
	// the same Coro steps, only the control transfer differs — so this
	// engine exists for bit-identity cross-checks against EngineCoro and
	// to measure what a thread switch costs free-form bodies.
	EngineGoroutine
)

func (k EngineKind) String() string {
	if k == EngineGoroutine {
		return "goroutine"
	}
	return "coro"
}

// SetEngine overrides the simulation's coroutine engine, EngineCoro
// unless set. It must be called before any thread is created: a Sim
// cannot mix a thread spawned under one engine with a later engine
// change.
func (s *Sim) SetEngine(k EngineKind) {
	if len(s.threads) > 0 {
		panic("vclock: SetEngine after threads were created")
	}
	s.engine = k
}
