package apacheweb

import (
	"bytes"
	"fmt"
	"testing"

	"whodunit"
	"whodunit/internal/workload"
)

// This file is the differential oracle for the listener and worker frame
// programs: the two blocking bodies the package ran before they became
// run-to-completion programs — free-form Stage.Go threads calling the
// blocking Queue.Push and Queue.Pop — kept, test-only, and started on the
// same wired app through buildWith, so that TestApacheFrameParity can
// build one configuration both ways and demand the same bytes.

func buildRef(cfg Config) *system {
	return buildWith(cfg, (*listener).refSpawn, (*worker).refSpawn)
}

func (l *listener) refSpawn(name string) {
	sys := l.sys
	cfg, st, fdq := sys.cfg, sys.st, sys.fdq
	st.Go(name, func(th *whodunit.Thread, pr *whodunit.Probe) {
		for _, conn := range cfg.Trace.Conns {
			func() {
				defer pr.Exit(pr.Enter("listener_thread"))
				st.BeginTxn(pr, "listener_thread", "apr_socket_accept")
				func() {
					defer pr.Exit(pr.Enter("apr_socket_accept"))
					pr.Compute(30 * whodunit.Microsecond)
				}()
				fdq.Push(pr, conn)
			}()
			if cfg.ConnInterval > 0 {
				th.Sleep(cfg.ConnInterval)
			}
		}
	})
}

func (w *worker) refSpawn(name string) {
	sys := w.sys
	fdq, res, tr := sys.fdq, sys.res, sys.cfg.Trace
	sys.st.Go(name, func(th *whodunit.Thread, pr *whodunit.Probe) {
		for {
			func() {
				defer pr.Exit(pr.Enter("worker_thread"))
				conn := fdq.Pop(pr).(workload.Connection)
				func() {
					defer pr.Exit(pr.Enter("ap_process_connection"))
					for _, req := range conn.Reqs {
						pr.Compute(parseCost)
						func() {
							defer pr.Exit(pr.Enter("sendfile"))
							pr.Compute(whodunit.Duration(tr.Size(req)) * sendPerByte)
						}()
						res.BytesSent += tr.Size(req)
						res.Requests++
					}
				}()
				res.Conns++
				sys.done++
			}()
		}
	})
}

func parityTrace(seed uint64) *workload.WebTrace {
	wc := workload.DefaultWebConfig()
	wc.Seed = seed
	wc.NumConns = 60
	wc.NumFiles = 200
	wc.MinSize = 8 << 10
	return workload.GenWeb(wc)
}

// sameRun reports how a frame run differs from the oracle's, or "".
func sameRun(got, want *Result) string {
	var gj, wj bytes.Buffer
	if err := got.Report.JSON(&gj); err != nil {
		return err.Error()
	}
	if err := want.Report.JSON(&wj); err != nil {
		return err.Error()
	}
	switch {
	case got.Requests != want.Requests || got.Conns != want.Conns || got.BytesSent != want.BytesSent:
		return fmt.Sprintf("served %d/%d/%d requests/conns/bytes, oracle %d/%d/%d",
			got.Requests, got.Conns, got.BytesSent, want.Requests, want.Conns, want.BytesSent)
	case got.Elapsed != want.Elapsed:
		return fmt.Sprintf("elapsed %v, oracle %v", got.Elapsed, want.Elapsed)
	case got.EmulationCycles != want.EmulationCycles:
		return fmt.Sprintf("%d emulation cycles, oracle %d", got.EmulationCycles, want.EmulationCycles)
	case got.FlowStats != want.FlowStats:
		return fmt.Sprintf("flow stats %+v, oracle %+v", got.FlowStats, want.FlowStats)
	case !bytes.Equal(gj.Bytes(), wj.Bytes()):
		return fmt.Sprintf("report JSON differs (%d vs %d bytes)", gj.Len(), wj.Len())
	}
	return ""
}

// TestApacheFrameParity: the frame programs and the blocking bodies they
// replaced produce the same run — report bytes, counters, finish
// instant, emulation cycles and tracker statistics — over seeds, modes,
// pool sizes, core counts and arrival gaps, including the shapes where
// several workers are charged for their pops at once (more workers than
// cores, back-to-back arrivals) and so finish in another order than they
// began.
func TestApacheFrameParity(t *testing.T) {
	modes := []whodunit.Mode{whodunit.ModeWhodunit, whodunit.ModeSampling, whodunit.ModeInstrumented, whodunit.ModeOff}
	runs, flows := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		tr := parityTrace(seed)
		for _, mode := range modes {
			for _, workers := range []int{1, 2, 8, 16} {
				for _, cores := range []int{1, 2} {
					for _, gap := range []whodunit.Duration{0, 50 * whodunit.Microsecond} {
						cfg := DefaultConfig(tr)
						cfg.Mode, cfg.Workers, cfg.Cores, cfg.ConnInterval = mode, workers, cores, gap
						got, want := build(cfg).finish(), buildRef(cfg).finish()
						if d := sameRun(got, want); d != "" {
							t.Fatalf("seed %d mode %v workers %d cores %d gap %v: %s", seed, mode, workers, cores, gap, d)
						}
						if got.Conns != int64(len(tr.Conns)) {
							t.Fatalf("seed %d mode %v workers %d: served %d of %d connections", seed, mode, workers, got.Conns, len(tr.Conns))
						}
						if mode == whodunit.ModeWhodunit {
							// Equal is not yet right: the oracle's Queue.Push/Pop
							// await the same port frames the model runs, so
							// both would lose an adoption alike. A worker that was not
							// handed its connection's context serves it under
							// the one it started with.
							for _, e := range got.Profiler.Entries() {
								if _, ok := e.Tree.Find("worker_thread", "ap_process_connection"); ok && e.Ctxt.Local.IsRoot() {
									t.Fatalf("seed %d workers %d cores %d gap %v: a connection was served under the root context", seed, workers, cores, gap)
								}
							}
						}
						if want.Switches == 0 {
							t.Fatal("the oracle made no thread switch: it is not running the blocking bodies")
						}
						runs++
						flows += len(got.Flows)
					}
				}
			}
		}
	}
	if flows == 0 {
		t.Fatal("no run detected a flow: the parity says nothing about context adoption")
	}
	t.Logf("%d configurations equal, %d flows", runs, flows)
}
