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
//
// The listener and the workers are run-to-completion frame programs
// (Stage.GoCoro): two small state machines whose blocking operations —
// waiting on the fd queue, being charged for a critical section or for
// serving a request — are continuation calls on the dispatcher's stack.
// Each takes its whodunit.QueuePort on the fd queue where its program
// begins and pushes or pops through it with one call, so the queue is
// still the whole API; a run makes no thread switch (Result.Switches
// reads 0), and what the simulator spends on a connection is the
// emulator, the tracker and the profiler.
//
// The per-request CPU costs are calibration constants of the model
// (parseCost, sendPerByte below), fixed once against the paper's
// figures; Config holds only what a run varies.
package apacheweb

import (
	"fmt"

	"whodunit"
	"whodunit/internal/workload"
)

// CyclesPerSecond converts vm cycles to virtual time (the paper's 2.4 GHz
// Xeon).
const CyclesPerSecond = whodunit.DefaultCyclesPerSecond

// parseCost is the fixed CPU demand to parse one request; sendPerByte
// the per-byte cost of ap_process_connection/sendfile.
const (
	parseCost   = 60 * whodunit.Microsecond
	sendPerByte = 12 * whodunit.Nanosecond // ~80 MB/s per core sendfile path
)

// Config parameterises a run.
type Config struct {
	Workers int
	Cores   int
	Mode    whodunit.Mode
	Trace   *workload.WebTrace
	// ConnInterval is the inter-arrival gap between accepted connections
	// at the listener; 0 means back-to-back (peak load).
	ConnInterval whodunit.Duration
}

// DefaultConfig serves trace at peak load with 8 workers on 2 cores.
func DefaultConfig(trace *workload.WebTrace) Config {
	return Config{
		Workers: 8,
		Cores:   2,
		Mode:    whodunit.ModeWhodunit,
		Trace:   trace,
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
	// Switches counts the scheduler's hand-offs to free-form threads
	// (Sim.Switches); the model has none, so it reads 0.
	Switches int64
}

// Run executes the trace against the modelled server and returns the
// transactional profile and throughput.
func Run(cfg Config) *Result {
	return build(cfg).finish()
}

// system is the built-but-not-yet-run server: the app, its one stage,
// the fd queue, and what the threads count. Run = build + finish.
type system struct {
	cfg  Config
	app  *whodunit.App
	st   *whodunit.Stage
	fdq  *whodunit.Queue
	res  *Result
	done int // connections served

	// The frames the threads enter, interned once in the stage's table.
	listenerFrame, acceptFrame, workerFrame, connFrame, sendFrame whodunit.FrameID
}

func build(cfg Config) *system {
	return buildWith(cfg, (*listener).spawn, (*worker).spawn)
}

// buildWith is build with the way the wired listener and each wired
// worker become stage threads passed in. It exists for the differential
// oracle of ref_test.go, which starts them as the blocking bodies they
// were before they became frame programs.
func buildWith(cfg Config, spawnListener func(*listener, string), spawnWorker func(*worker, string)) *system {
	if cfg.Trace == nil {
		panic("apacheweb: nil trace")
	}
	app := whodunit.NewApp("apache",
		whodunit.WithMode(cfg.Mode),
		whodunit.WithCores(cfg.Cores),
		whodunit.WithFlowDetection())
	st := app.Stage("apache")
	sys := &system{cfg: cfg, app: app, st: st, fdq: app.NewQueue("fdqueue-sem"),
		res: &Result{Profiler: st.Profiler()}}
	frames := st.Profiler().Frames()
	sys.listenerFrame, sys.acceptFrame = frames.ID("listener_thread"), frames.ID("apr_socket_accept")
	sys.workerFrame, sys.connFrame, sys.sendFrame = frames.ID("worker_thread"), frames.ID("ap_process_connection"), frames.ID("sendfile")
	spawnListener(&listener{sys: sys}, "listener")
	for w := 0; w < cfg.Workers; w++ {
		spawnWorker(&worker{sys: sys}, fmt.Sprintf("worker-%d", w))
	}
	return sys
}

// listener is the accept loop as a run-to-completion state machine:
// accept (open listener_thread, begin the connection's transaction, open
// apr_socket_accept, charge the accept) → accepted (close
// apr_socket_accept, push the connection into the shared-memory fd
// queue: the critical section runs on the emulated machine under the
// fresh transaction context established at the accept point) → pushed
// (close listener_thread, wait out the inter-arrival gap) → accept → ...
// until the trace is exhausted.
type listener struct {
	sys  *system
	pr   *whodunit.Probe
	port *whodunit.QueuePort

	next        int              // index of the next connection to accept
	txn         whodunit.TxnCtxt // what BeginTxn returned at the first accept
	tok, accTok int              // listener_thread and apr_socket_accept frame tokens

	acceptF, acceptedF, pushedF whodunit.Frame
}

func (l *listener) spawn(name string) {
	l.acceptF, l.acceptedF, l.pushedF = l.accept, l.accepted, l.pushed
	l.sys.st.GoCoro(name, l.begin)
}

// begin runs at thread start, and again on a fresh thread and probe when
// a crashed stage restarts: the respawned listener accepts the trace
// from its first connection.
func (l *listener) begin(_ *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
	l.pr, l.port, l.next = pr, l.sys.fdq.Port(pr), 0
	return l.acceptF
}

func (l *listener) accept(c *whodunit.Coro, _ any) whodunit.Step {
	if l.next >= len(l.sys.cfg.Trace.Conns) {
		return c.End()
	}
	l.tok = l.pr.EnterID(l.sys.listenerFrame)
	// Each accepted connection is a fresh transaction whose context is
	// the listener's call path at the push point: the same interned
	// context every time, so it is built once and re-entered after.
	if l.txn.Local == nil {
		l.txn = l.sys.st.BeginTxn(l.pr, "listener_thread", "apr_socket_accept")
	} else {
		l.pr.SetTxn(l.txn)
	}
	l.accTok = l.pr.EnterID(l.sys.acceptFrame)
	return l.pr.ComputeStep(c, 30*whodunit.Microsecond, l.acceptedF)
}

func (l *listener) accepted(c *whodunit.Coro, _ any) whodunit.Step {
	l.pr.Exit(l.accTok)
	conn := &l.sys.cfg.Trace.Conns[l.next]
	l.next++
	return l.port.Push(c, conn, l.pushedF)
}

func (l *listener) pushed(c *whodunit.Coro, _ any) whodunit.Step {
	l.pr.Exit(l.tok)
	if gap := l.sys.cfg.ConnInterval; gap > 0 {
		return c.Sleep(gap, l.acceptF)
	}
	return l.accept(c, nil)
}

// worker is one worker thread as a run-to-completion state machine: idle
// (open worker_thread, pop from the fd queue — the §3.5 flow detection
// hands the worker the listener's transaction context) → popped (open
// ap_process_connection) → serve (charge the next request's parse) →
// parsed (open sendfile, charge the bytes) → sent (close sendfile, count
// the request) → serve → ... → after the last request close both frames
// and go back to idle.
type worker struct {
	sys  *system
	pr   *whodunit.Probe
	port *whodunit.QueuePort

	conn                  *workload.Connection
	req                   int // index of the request in service
	tok, connTok, sendTok int // worker_thread, ap_process_connection, sendfile

	poppedF, parsedF, sentF whodunit.Frame
}

func (w *worker) spawn(name string) {
	w.poppedF, w.parsedF, w.sentF = w.popped, w.parsed, w.sent
	w.sys.st.GoCoro(name, w.begin)
}

// begin: as for the listener, a respawn inherits nothing from the
// connection its predecessor was killed in.
func (w *worker) begin(_ *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
	w.pr, w.port, w.conn = pr, w.sys.fdq.Port(pr), nil
	return w.idle
}

func (w *worker) idle(c *whodunit.Coro, _ any) whodunit.Step {
	w.tok = w.pr.EnterID(w.sys.workerFrame)
	return w.port.Pop(c, w.poppedF)
}

func (w *worker) popped(c *whodunit.Coro, v any) whodunit.Step {
	w.conn, w.req = v.(*workload.Connection), 0
	w.connTok = w.pr.EnterID(w.sys.connFrame)
	return w.serve(c)
}

func (w *worker) serve(c *whodunit.Coro) whodunit.Step {
	if w.req >= len(w.conn.Reqs) {
		w.pr.Exit(w.connTok)
		w.sys.res.Conns++
		w.sys.done++
		w.pr.Exit(w.tok)
		return w.idle(c, nil)
	}
	return w.pr.ComputeStep(c, parseCost, w.parsedF)
}

func (w *worker) parsed(c *whodunit.Coro, _ any) whodunit.Step {
	w.sendTok = w.pr.EnterID(w.sys.sendFrame)
	return w.pr.ComputeStep(c, whodunit.Duration(w.sys.cfg.Trace.Size(w.conn.Reqs[w.req]))*sendPerByte, w.sentF)
}

func (w *worker) sent(c *whodunit.Coro, _ any) whodunit.Step {
	w.pr.Exit(w.sendTok)
	res := w.sys.res
	res.BytesSent += w.sys.cfg.Trace.Size(w.conn.Reqs[w.req])
	res.Requests++
	w.req++
	return w.serve(c)
}

// finish runs the built server until every connection of the trace is
// served and summarises the run.
func (sys *system) finish() *Result {
	total := len(sys.cfg.Trace.Conns)
	rep := sys.app.RunUntil(func() bool { return sys.done >= total })
	res := sys.res
	res.Report = rep
	res.Elapsed = rep.Elapsed
	res.Flows = rep.Flows
	res.FlowStats = sys.app.FlowStats()
	res.EmulationCycles = sys.app.Machine().TotalCycles
	res.Switches = sys.app.Sim().Switches()
	if res.Elapsed > 0 {
		res.ThroughputMbps = float64(res.BytesSent) * 8 / 1e6 / res.Elapsed.Seconds()
	}
	return res
}
