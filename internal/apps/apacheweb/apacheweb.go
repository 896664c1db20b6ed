// Package apacheweb models the Apache 2.x worker architecture of §8.1 and
// §9.2: a listener thread accepts connections and pushes them into a
// shared fd queue; a pool of worker threads pops connections and serves
// their requests.
//
// The model is an App/Stage composition: the fd queue is App.NewQueue —
// Figure 1's ap_queue_push / ap_queue_pop as a library type — so its
// critical sections *execute on the emulated machine* and the shmflow
// tracker propagates the listener's transaction context to the worker
// automatically, exactly as §3.5 prescribes, with no plumbing in this
// package at all. The emulation cycles are charged to the server CPU,
// which is where Whodunit's 2.3% Apache overhead (§9.2) comes from.
package apacheweb

import (
	"fmt"

	"whodunit"
	"whodunit/internal/workload"
)

// CyclesPerSecond converts vm cycles to virtual time (the paper's 2.4 GHz
// Xeon).
const CyclesPerSecond = whodunit.DefaultCyclesPerSecond

// Config parameterises a run.
type Config struct {
	Workers int
	Cores   int
	Mode    whodunit.Mode
	Trace   *workload.WebTrace
	// ConnInterval is the inter-arrival gap between accepted connections
	// at the listener; 0 means back-to-back (peak load).
	ConnInterval whodunit.Duration
	// ParseCost is the fixed CPU demand to parse one request; SendPerByte
	// the per-byte cost of ap_process_connection/sendfile.
	ParseCost   whodunit.Duration
	SendPerByte whodunit.Duration
}

// DefaultConfig serves trace at peak load with 8 workers on 2 cores.
func DefaultConfig(trace *workload.WebTrace) Config {
	return Config{
		Workers:     8,
		Cores:       2,
		Mode:        whodunit.ModeWhodunit,
		Trace:       trace,
		ParseCost:   60 * whodunit.Microsecond,
		SendPerByte: 12 * whodunit.Nanosecond, // ~80 MB/s per core sendfile path
	}
}

// Result summarises a run.
type Result struct {
	Report          *whodunit.Report
	Profiler        *whodunit.Profiler
	Flows           []whodunit.FlowEvent
	FlowStats       whodunit.FlowStats
	Elapsed         whodunit.Duration
	BytesSent       int64
	Requests        int64
	Conns           int64
	ThroughputMbps  float64
	EmulationCycles int64
}

// Run executes the trace against the modelled server and returns the
// transactional profile and throughput.
func Run(cfg Config) *Result {
	if cfg.Trace == nil {
		panic("apacheweb: nil trace")
	}
	app := whodunit.NewApp("apache",
		whodunit.WithMode(cfg.Mode),
		whodunit.WithCores(cfg.Cores),
		whodunit.WithFlowDetection())
	st := app.Stage("apache")
	fdq := app.NewQueue("fdqueue-sem")

	res := &Result{Profiler: st.Profiler()}
	done := 0
	total := len(cfg.Trace.Conns)

	// Listener thread: accept, push into the shared-memory fd queue. The
	// push critical section runs on the emulated machine under the fresh
	// transaction context established at the accept point.
	st.Go("listener", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for _, conn := range cfg.Trace.Conns {
			func() {
				defer pr.Exit(pr.Enter("listener_thread"))
				// Each accepted connection is a fresh transaction whose
				// context is the listener's call path at the push point.
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

	// Worker threads: pop from the fd queue — the §3.5 flow detection
	// hands each worker the listener's transaction context — and serve
	// the connection.
	for w := 0; w < cfg.Workers; w++ {
		st.Go(fmt.Sprintf("worker-%d", w), func(th *whodunit.Thread, pr *whodunit.Probe) {
			for {
				func() {
					defer pr.Exit(pr.Enter("worker_thread"))
					conn := fdq.Pop(pr).(workload.Connection)
					func() {
						defer pr.Exit(pr.Enter("ap_process_connection"))
						for _, req := range conn.Reqs {
							pr.Compute(cfg.ParseCost)
							func() {
								defer pr.Exit(pr.Enter("sendfile"))
								pr.Compute(whodunit.Duration(req.Size) * cfg.SendPerByte)
							}()
							res.BytesSent += req.Size
							res.Requests++
						}
					}()
					res.Conns++
					done++
				}()
			}
		})
	}

	rep := app.RunUntil(func() bool { return done >= total })
	res.Report = rep
	res.Elapsed = rep.Elapsed
	res.Flows = rep.Flows
	res.FlowStats = app.FlowStats()
	res.EmulationCycles = app.Machine().TotalCycles
	if res.Elapsed > 0 {
		res.ThroughputMbps = float64(res.BytesSent) * 8 / 1e6 / res.Elapsed.Seconds()
	}
	return res
}
