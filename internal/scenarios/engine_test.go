// The engine-determinism sweep: the entire scenario corpus rerun under
// both coroutine engines, asserted bit-identical — plain and under a
// seeded fault plan. Together with the
// golden files (which predate the run-to-completion engine) this is the
// acceptance bar for the zero-handoff scheduler: the engine may never
// change a single output byte.
package scenarios_test

import (
	"bytes"
	"testing"

	"whodunit"
	"whodunit/internal/scenarios"
	"whodunit/internal/vclock"
)

// withEngine runs f with vclock.DefaultEngine forced to k, restoring
// the build default afterwards.
func withEngine(k vclock.EngineKind, f func()) {
	prev := vclock.DefaultEngine
	vclock.DefaultEngine = k
	defer func() { vclock.DefaultEngine = prev }()
	f()
}

// TestCorpusEngineSweep: RunAll over the whole corpus is bit-identical
// whether coroutine threads run to completion on the dispatcher
// (EngineCoro) or are driven from dedicated goroutines
// (EngineGoroutine).
func TestCorpusEngineSweep(t *testing.T) {
	list := scenarios.All()
	var baseline, coro []*whodunit.Report
	withEngine(vclock.EngineGoroutine, func() { baseline = scenarios.RunAll(list) })
	withEngine(vclock.EngineCoro, func() { coro = scenarios.RunAll(list) })

	for i, s := range list {
		if d := whodunit.Diff(baseline[i], coro[i]); !d.Empty() {
			var buf bytes.Buffer
			d.Text(&buf)
			t.Errorf("%s: coro engine diverges from goroutine engine:\n%s", s.Name, buf.String())
			continue
		}
		a, b := renderJSON(t, baseline[i]), renderJSON(t, coro[i])
		if !bytes.Equal(a, b) {
			t.Errorf("%s: engines diff-empty but not bit-identical (%d vs %d bytes)",
				s.Name, len(a), len(b))
		}
	}
}

// TestCorpusEngineSweepUnderFaultPlan: killing and respawning
// run-to-completion threads through a fault plan stays bit-identical
// across engines.
func TestCorpusEngineSweepUnderFaultPlan(t *testing.T) {
	plan := &whodunit.FaultPlan{
		Seed:     3,
		Messages: []whodunit.MessageFault{{DelayProb: 0.25, Delay: 2 * whodunit.Millisecond}},
	}
	var list []scenarios.Scenario
	for _, s := range scenarios.All() {
		if s.MakeApp != nil {
			list = append(list, s)
		}
	}
	run := func() [][]byte {
		out := make([][]byte, len(list))
		for i, s := range list {
			app := s.MakeApp(s.Defaults)
			app.SetFaults(plan)
			out[i] = renderJSON(t, app.Run())
		}
		return out
	}
	var baseline, coro [][]byte
	withEngine(vclock.EngineGoroutine, func() { baseline = run() })
	withEngine(vclock.EngineCoro, func() { coro = run() })

	for i, s := range list {
		if !bytes.Equal(baseline[i], coro[i]) {
			t.Errorf("%s: faulted coro run differs from faulted goroutine run (%d vs %d bytes)",
				s.Name, len(baseline[i]), len(coro[i]))
		}
	}
}
