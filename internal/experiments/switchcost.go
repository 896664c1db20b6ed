package experiments

import (
	"fmt"
	"io"
	"time"

	"whodunit/internal/vclock"
)

// --- switchcost: context-switch cost of the two scheduler engines ----

// SwitchCostRow is one engine's measured hand-off cost.
type SwitchCostRow struct {
	Engine      string
	Thread      string // what a simulated thread is under this engine
	Switches    int
	NsPerSwitch float64
}

// SwitchCostResult compares the run-to-completion engine against
// coroutine-backed threads (the engine still named "goroutine") on the
// same two-thread ping-pong program.
type SwitchCostResult struct {
	Rows  []SwitchCostRow
	Ratio float64 // goroutine ns/switch over coro ns/switch
}

// SwitchCost measures the wall-clock cost of one blocking operation —
// queue Get parking the thread plus the Put-driven switch back — under
// each coroutine engine. The program is identical either way (the same
// GoCoro frames); the engine is overridden per Sim with SetEngine, not
// through the process-global default, because experiment jobs run
// concurrently in the worker pool. Each round trip is two switches.
func SwitchCost(rounds int) SwitchCostResult {
	measure := func(k vclock.EngineKind) float64 {
		s := vclock.New()
		s.SetEngine(k)
		qa, qb := s.NewQueue("a"), s.NewQueue("b")
		var token any = struct{}{}
		done := 0
		var echoF, countF vclock.Frame
		echoF = func(c *vclock.Coro, v any) vclock.Step {
			qa.Put(v)
			return c.Get(qb, echoF)
		}
		countF = func(c *vclock.Coro, v any) vclock.Step {
			done++
			qb.Put(v)
			return c.Get(qa, countF)
		}
		s.GoCoro("echo", func(c *vclock.Coro, _ any) vclock.Step { return c.Get(qb, echoF) })
		s.GoCoro("count", func(c *vclock.Coro, _ any) vclock.Step {
			qb.Put(token)
			return c.Get(qa, countF)
		})
		target := 0
		stop := func() bool { return done >= target }
		target = rounds / 10 // warm-up: slices at steady capacity
		s.RunUntil(stop)
		start := time.Now()
		target = done + rounds
		s.RunUntil(stop)
		elapsed := time.Since(start)
		s.Shutdown()
		return float64(elapsed.Nanoseconds()) / float64(rounds*2)
	}
	coro := measure(vclock.EngineCoro)
	gor := measure(vclock.EngineGoroutine)
	res := SwitchCostResult{Rows: []SwitchCostRow{
		{Engine: vclock.EngineCoro.String(), Thread: "frames run inline by the dispatcher", Switches: rounds * 2, NsPerSwitch: coro},
		{Engine: vclock.EngineGoroutine.String(), Thread: "a runtime coroutine (iter.Pull)", Switches: rounds * 2, NsPerSwitch: gor},
	}}
	if coro > 0 {
		res.Ratio = gor / coro
	}
	return res
}

// Render prints the switch-cost comparison.
func (r SwitchCostResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== switchcost: scheduler hand-off cost per blocking operation ==")
	fmt.Fprintf(w, "%-12s %-34s %12s %12s\n", "engine", "a thread is", "switches", "ns/switch")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-34s %12d %12.1f\n", row.Engine, row.Thread, row.Switches, row.NsPerSwitch)
	}
	fmt.Fprintf(w, "goroutine/coro ratio: %.1fx (coroutine-backed threads, two coroutine switches per thread switch, vs stackless frames)\n", r.Ratio)
}
