package scenarios_test

import (
	"testing"

	"whodunit"
	"whodunit/internal/scenarios"
)

// TestDenseTablesBounded: the two tables indexed by synopsis — an
// endpoint's sent dictionary and a profiler's CallCtxt memo — are bounded
// by the context dictionary of their stage, not by history. Over 200
// windows of serve-mesh (an endless arrival stream, every window retiring
// the CCTs), neither table ever has more slots than the stage's
// tranctx.Table has contexts, and both stop growing when it does. The
// sizes are read on demand; nothing counts on
// the request path: a scheduler callback samples them once a window.
func TestDenseTablesBounded(t *testing.T) {
	const windows = 200
	s, _ := scenarios.ServeByName("serve-mesh")
	app := s.App(s.Defaults, 0)
	type sizes struct{ ctxts, sent, memo int }
	var history [][]sizes // window -> stage
	app.Sim().Every(s.Window, func() {
		var now []sizes
		for _, st := range app.Stages() {
			z := sizes{st.Profiler().Table.Size(), st.Endpoint().Slots(), st.Profiler().CallCtxtSlots()}
			if z.sent > z.ctxts || z.memo > z.ctxts {
				t.Errorf("window %d, stage %s: %d sent slots and %d memo slots for %d contexts", len(history), st.Name, z.sent, z.memo, z.ctxts)
			}
			now = append(now, z)
		}
		history = append(history, now)
	})
	whodunit.NewServer(app, whodunit.ServeConfig{Window: s.Window, Threshold: -1, MaxWindows: windows}).Run()
	if len(history) < windows {
		t.Fatalf("%d windows sampled, want %d", len(history), windows)
	}

	settled := 0 // the first window from which no stage's dictionary grows again
	for w := 1; w < windows; w++ {
		for i := range history[w] {
			if history[w][i].ctxts != history[w-1][i].ctxts {
				settled = w
			}
		}
	}
	// One window of grace: a request in flight across the boundary may
	// send from a context interned just before it.
	if settled+1 >= windows/2 {
		t.Fatalf("context dictionaries still growing in window %d of %d: the run is too short to show a bound", settled, windows)
	}
	for i, st := range app.Stages() {
		early, late := history[settled+1][i], history[windows-1][i]
		if early != late {
			t.Errorf("stage %s: %+v after window %d, %+v after window %d — a table grew after the dictionary stopped", st.Name, early, settled+1, late, windows-1)
		}
		t.Logf("stage %-8s %3d contexts, %3d sent slots, %3d memo slots (settled in window %d)", st.Name, late.ctxts, late.sent, late.memo, settled)
	}
}
