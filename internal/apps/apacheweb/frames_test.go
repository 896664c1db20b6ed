package apacheweb

import (
	"bytes"
	"strings"
	"testing"

	"whodunit"
	"whodunit/internal/workload"
)

// TestApacheRequestPathTakesNoThreadSwitch is the mechanical form of
// "the listener and the workers are frame programs": no free-form thread
// exists, so the scheduler never switches to a coroutine, in any
// mode. (As blocking bodies the count was about three per request.)
func TestApacheRequestPathTakesNoThreadSwitch(t *testing.T) {
	for _, mode := range []whodunit.Mode{whodunit.ModeWhodunit, whodunit.ModeSampling, whodunit.ModeInstrumented, whodunit.ModeOff} {
		cfg := DefaultConfig(smallTrace())
		cfg.Mode = mode
		res := Run(cfg)
		if res.Requests == 0 {
			t.Fatalf("mode %v: nothing served", mode)
		}
		if res.Switches != 0 {
			t.Errorf("mode %v: %d thread switches over %d requests, want 0", mode, res.Switches, res.Requests)
		}
	}
}

// inFlight reports whether an execution of the fd queue's push (or pop)
// critical section is between its halves: run on the machine, its vm
// thread not yet reaped.
func inFlight(sys *system, op string) bool {
	for _, vt := range sys.app.Machine().Threads {
		if strings.HasPrefix(vt.Prog.Name, "fd_queue_"+op) {
			return true
		}
	}
	return false
}

// TestApacheKilledInsideCriticalSection: the stage crashing while the
// listener is being charged for a push, or a worker for a pop, must
// leave nothing of that execution behind — no live register file in the
// tracker, no vm thread on the machine — and the restarted stage must go
// on serving, whichever face of the queue its threads use. Before the
// two halves of an emulated execution existed the second one was simply
// skipped (RegFilesLive read 1 after either crash).
func TestApacheKilledInsideCriticalSection(t *testing.T) {
	wc := workload.DefaultWebConfig()
	wc.NumConns = 400
	wc.NumFiles = 200
	cfg := DefaultConfig(workload.GenWeb(wc))

	// Find the two crash instants on a fault-free run: a plan of crashes
	// draws nothing, so the faulted runs are in the same state when they
	// get there.
	crashAt := map[string]whodunit.Time{}
	probe := build(cfg)
	for at := whodunit.Time(10 * whodunit.Millisecond); at < whodunit.Time(11*whodunit.Millisecond); at = at.Add(100 * whodunit.Nanosecond) {
		probe.app.Sim().At(at, func() {
			for _, op := range []string{"push", "pop"} {
				if crashAt[op] == 0 && inFlight(probe, op) {
					crashAt[op] = at
				}
			}
		})
	}
	probe.finish()

	const restartAfter = 200 * whodunit.Microsecond
	for _, op := range []string{"push", "pop"} {
		at := crashAt[op]
		if at == 0 {
			t.Fatalf("no instant between 10 ms and 11 ms lies inside a %s; pick another window", op)
		}
		run := func(name string, build func(Config) *system) (*Result, []byte) {
			sys := build(cfg)
			sys.app.SetFaults(&whodunit.FaultPlan{Crashes: []whodunit.StageCrash{
				{Stage: "apache", At: at, RestartAfter: restartAfter},
			}})
			sim := sys.app.Sim()
			// Registered before the run arms the plan, so it runs just
			// before the crash at the same instant.
			sim.At(at, func() {
				if !inFlight(sys, op) {
					t.Errorf("%s, %s face: no %s is in flight at the crash", op, name, op)
				}
			})
			var atRestart int64
			sim.At(at.Add(restartAfter), func() { atRestart = sys.res.Conns })
			res := sys.finish()
			if c := sim.Crashed(); c != nil {
				t.Fatalf("%s, %s face: the run crashed: %v", op, name, c)
			}
			if n := res.FlowStats.RegFilesLive; n != 0 {
				t.Errorf("%s, %s face: %d register files still live after the run", op, name, n)
			}
			if n := len(sys.app.Machine().Threads); n != 0 {
				t.Errorf("%s, %s face: %d vm threads never reaped", op, name, n)
			}
			if res.Conns < atRestart+int64(len(cfg.Trace.Conns))/2 {
				t.Errorf("%s, %s face: %d connections served by the restart and %d by the end; the restarted stage serves nothing", op, name, atRestart, res.Conns)
			}
			if f := res.Report.Faults; f == nil || f.Crashes != 1 || f.Restarts != 1 {
				t.Errorf("%s, %s face: fault ledger %+v, want 1 crash and 1 restart", op, name, f)
			}
			var buf bytes.Buffer
			if err := res.Report.JSON(&buf); err != nil {
				t.Fatal(err)
			}
			return res, buf.Bytes()
		}
		got, js := run("frame", build)
		want, wantJS := run("blocking", buildRef)
		// Kill and respawn are part of the parity.
		if got.Conns != want.Conns || got.Elapsed != want.Elapsed || !bytes.Equal(js, wantJS) {
			t.Errorf("%s: %d connections in %v, the blocking oracle %d in %v under the same plan; report bytes equal: %v",
				op, got.Conns, got.Elapsed, want.Conns, want.Elapsed, bytes.Equal(js, wantJS))
		}
	}
}

// TestApacheSurvivesManyRestarts: every restart gives the queue nine new
// threads, eight of them poppers with scratch words in vm memory. A
// hundred restarts are more poppers than the queue has scratch slots
// (576), so the dead ones' slots must come back.
func TestApacheSurvivesManyRestarts(t *testing.T) {
	wc := workload.DefaultWebConfig()
	wc.NumConns = 1500
	wc.NumFiles = 200
	cfg := DefaultConfig(workload.GenWeb(wc))
	plan := &whodunit.FaultPlan{}
	for i := 0; i < 100; i++ {
		plan.Crashes = append(plan.Crashes, whodunit.StageCrash{
			Stage: "apache", At: whodunit.Time(i+1) * whodunit.Time(whodunit.Millisecond), RestartAfter: 300 * whodunit.Microsecond,
		})
	}
	for _, face := range []struct {
		name  string
		build func(Config) *system
	}{{"frame", build}, {"blocking", buildRef}} {
		sys := face.build(cfg)
		sys.app.SetFaults(plan)
		res := sys.finish()
		if c := sys.app.Sim().Crashed(); c != nil {
			t.Fatalf("%s face: the run crashed: %v", face.name, c)
		}
		if f := res.Report.Faults; f == nil || f.Crashes != 100 || f.Restarts != 100 {
			t.Errorf("%s face: fault ledger %+v, want 100 crashes and restarts", face.name, f)
		}
		if res.Conns < int64(len(cfg.Trace.Conns)) {
			t.Errorf("%s face: %d of %d connections served", face.name, res.Conns, len(cfg.Trace.Conns))
		}
		if n := res.FlowStats.RegFilesLive; n != 0 {
			t.Errorf("%s face: %d register files still live after the run", face.name, n)
		}
		if n := len(sys.app.Machine().Threads); n != 0 {
			t.Errorf("%s face: %d vm threads never reaped", face.name, n)
		}
	}
}
