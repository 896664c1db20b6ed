package tpcw

import (
	"bytes"
	"slices"
	"testing"

	"whodunit"
	"whodunit/internal/workload"
)

// TestTPCWRequestPathTakesNoThreadSwitch is the mechanical form of "every
// tier is a frame program": no free-form thread exists, so no time domain
// ever switches to a coroutine, in any layout. (With tomcat and
// mysqld as blocking bodies the count was about twelve per completed
// interaction.)
func TestTPCWRequestPathTakesNoThreadSwitch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		sharded  bool
	}{{"single", 0, false}, {"replicated serial", 3, false}, {"replicated sharded", 3, true}} {
		sys := build(replicatedTestConfig(24, tc.replicas, tc.sharded))
		res := sys.finish()
		if res.Completed == 0 {
			t.Fatalf("%s: nothing completed", tc.name)
		}
		if tc.sharded && sys.app.Shards() != tc.replicas+1 {
			t.Fatalf("%s: ran on %d time domains, want %d", tc.name, sys.app.Shards(), tc.replicas+1)
		}
		for d := 0; d < sys.app.Shards(); d++ {
			if n := sys.app.ShardSim(d).Switches(); n != 0 {
				t.Errorf("%s: time domain %d made %d thread switches over %d interactions, want 0", tc.name, d, n, res.Completed)
			}
		}
	}
}

// TestTPCWWorkerKilledMidQueryReleasesLock: a frame program has no
// deferred unlock, so the mysql stage crashing while a worker is inside
// BestSellers' sorted scan — under the order_line read lock, with a
// tomcat worker waiting in db_rpc for the answer — must release that
// lock through the worker's Coro.Defer cleanup, or every later
// order_line writer and the readers behind it wedge. The same instant
// is then used to crash the tomcat stage instead. Either way the run
// must equal, byte for byte, the blocking oracle's run under the same
// plan: kill and respawn are part of the parity.
func TestTPCWWorkerKilledMidQueryReleasesLock(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Duration = 20 * whodunit.Second
	cfg.ThinkMean = 100 * whodunit.Millisecond
	cfg.SquidWorkers, cfg.TomcatWorkers, cfg.DBWorkers = 8, 4, 3
	cfg.Mix = map[string]float64{workload.BestSellers: 60, workload.BuyConfirm: 20, workload.Home: 20}

	// inScan reports whether some thread holds order_line's table lock
	// from inside the temp-table sort of a select on it.
	inScan := func(sys *system) bool {
		for _, th := range sys.tables.orderLine.TableLock().Holders() {
			if pr, ok := th.Data.(*whodunit.Probe); ok && slices.Contains(pr.Stack(), "temp_table_sort") {
				return true
			}
		}
		return false
	}
	// Find the crash instant on a fault-free run: a plan of crashes draws
	// nothing, so the faulted runs are in the same state when they get
	// there.
	var crashAt whodunit.Time
	probe := build(cfg)
	for at := whodunit.Time(2 * whodunit.Second); at < whodunit.Time(3*whodunit.Second); at = at.Add(whodunit.Millisecond) {
		probe.app.Sim().At(at, func() {
			if crashAt == 0 && inScan(probe) {
				crashAt = at
			}
		})
	}
	probe.finish()
	if crashAt == 0 {
		t.Fatal("no instant between 2 s and 3 s has a worker inside an order_line sorted scan; pick another window")
	}

	const restartAfter = 20 * whodunit.Millisecond
	for _, stage := range []string{"mysql", "tomcat"} {
		run := func(build func(Config) *system) (*system, *Result, int64, []byte) {
			sys := build(cfg)
			sys.app.SetFaults(&whodunit.FaultPlan{Crashes: []whodunit.StageCrash{
				{Stage: stage, At: crashAt, RestartAfter: restartAfter},
			}})
			sim := sys.app.Sim()
			// Registered before the run arms the plan, so it runs just
			// before the crash at the same instant.
			sim.At(crashAt, func() {
				if !inScan(sys) {
					t.Errorf("%s: no worker is inside an order_line sorted scan at the crash", stage)
				}
			})
			var atRestart int64
			sim.At(crashAt.Add(restartAfter), func() { atRestart = sys.pods[0].completed })
			res := sys.finish()
			var buf bytes.Buffer
			if err := res.Report.JSON(&buf); err != nil {
				t.Fatal(err)
			}
			return sys, res, atRestart, buf.Bytes()
		}
		sys, res, atRestart, js := run(build)
		if c := sys.app.Sim().Crashed(); c != nil {
			t.Fatalf("%s: the run crashed: %v", stage, c)
		}
		for _, tab := range []struct {
			name string
			lock *whodunit.Lock
		}{{"item", sys.tables.item.TableLock()}, {"order_line", sys.tables.orderLine.TableLock()}} {
			if h := tab.lock.Holders(); len(h) != 0 {
				t.Errorf("%s: %s's table lock still held by %s after the run", stage, tab.name, h[0].Name)
			}
		}
		if res.Completed < atRestart+20 {
			t.Errorf("%s: %d interactions completed by the restart and %d by the end; the restarted stage serves nothing", stage, atRestart, res.Completed)
		}
		if f := res.Report.Faults; f == nil || f.Crashes != 1 || f.Restarts != 1 {
			t.Errorf("%s: fault ledger %+v, want 1 crash and 1 restart", stage, f)
		}
		_, want, _, wantJS := run(buildRef)
		if res.Completed != want.Completed || !bytes.Equal(js, wantJS) {
			t.Errorf("%s: completed %d, the blocking oracle %d under the same plan; report bytes equal: %v",
				stage, res.Completed, want.Completed, bytes.Equal(js, wantJS))
		}
	}
}
