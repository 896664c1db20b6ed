// Package squidproxy models the Squid web proxy cache of §8.2: an
// event-driven, single-threaded server built on the event library, with
// the five handlers of Figure 9 — httpAccept, clientReadRequest,
// commConnectHandle, httpReadReply, commHandleWrite — and an LRU object
// cache. Cache hits take the short handler sequence
// (accept→read→write) and misses the long one
// (accept→read→connect→readReply→write), so the write handler's CPU
// appears under two distinct transaction contexts, which is exactly the
// distinction Figure 9 highlights.
//
// The model is an App/Stage composition: the stage's event loop is
// bound to the dispatching probe (Stage.BindLoop), so every handler's
// samples land in the handler-sequence context with no instrumentation
// in the handlers themselves.
//
// The origin latency and the per-unit costs are calibration constants
// of the model (the const block before Config), fixed once against the
// paper's figures; Config holds only what a run varies.
package squidproxy

import (
	"container/list"

	"whodunit"
	"whodunit/internal/workload"
)

// The §8.2 experiment: same web trace as Apache, origin on a separate
// machine.
const (
	// originDelay is the network+origin latency for a miss.
	originDelay = 2 * whodunit.Millisecond
	// Per-unit CPU costs.
	acceptCost   = 40 * whodunit.Microsecond
	parseCost    = 70 * whodunit.Microsecond
	connectCost  = 50 * whodunit.Microsecond
	recvPerByte  = 10 * whodunit.Nanosecond // receiving origin data (miss)
	writePerByte = 14 * whodunit.Nanosecond // writing the reply to the client
)

// Config parameterises a run.
type Config struct {
	Mode  whodunit.Mode
	Trace *workload.WebTrace
	// CacheObjects is the LRU capacity in objects.
	CacheObjects int
}

// DefaultConfig profiles in whodunit mode with a 400-object cache.
func DefaultConfig(trace *workload.WebTrace) Config {
	return Config{
		Mode:         whodunit.ModeWhodunit,
		Trace:        trace,
		CacheObjects: 400,
	}
}

// Result summarises a run.
type Result struct {
	Report         *whodunit.Report
	Profiler       *whodunit.Profiler
	Loop           *whodunit.EventLoop
	Elapsed        whodunit.Duration
	BytesSent      int64
	Requests       int64
	Hits, Misses   int64
	ThroughputMbps float64
}

// lru is a tiny LRU set of file ids.
type lru struct {
	cap   int
	order *list.List
	items map[int]*list.Element
}

func newLRU(cap int) *lru {
	return &lru{cap: cap, order: list.New(), items: make(map[int]*list.Element)}
}

func (c *lru) get(id int) bool {
	el, ok := c.items[id]
	if ok {
		c.order.MoveToFront(el)
	}
	return ok
}

func (c *lru) put(id int) {
	if el, ok := c.items[id]; ok {
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		back := c.order.Back()
		if back != nil {
			delete(c.items, back.Value.(int))
			c.order.Remove(back)
		}
	}
	c.items[id] = c.order.PushFront(id)
}

// connState is the per-connection continuation data threaded through the
// handlers.
type connState struct {
	conn workload.Connection
	next int // index of the next request to serve
}

// Run drives the trace through the proxy and returns its transactional
// profile and throughput.
func Run(cfg Config) *Result {
	if cfg.Trace == nil {
		panic("squidproxy: nil trace")
	}
	app := whodunit.NewApp("squid", whodunit.WithMode(cfg.Mode), whodunit.WithCores(1))
	st := app.Stage("squid")
	loop := st.EventLoop()
	cache := newLRU(cfg.CacheObjects)
	res := &Result{Profiler: st.Profiler(), Loop: loop}

	readyQ := app.NewQueue("ready-events")
	sim := app.Sim()
	var pr *whodunit.Probe

	// Handlers (Figure 9). Each models its I/O latency by scheduling the
	// next event's readiness after a delay, and its CPU by Compute.
	var hAccept, hRead, hConnect, hReadReply, hWrite *whodunit.EventHandler

	ioReady := func(ev *whodunit.Event, after whodunit.Duration) {
		sim.After(after, func() { readyQ.Put(ev) })
	}

	hWrite = &whodunit.EventHandler{Name: "commHandleWrite", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		st := ev.Data.(*connState)
		size := cfg.Trace.Size(st.conn.Reqs[st.next])
		func() {
			defer pr.Exit(pr.Enter("commHandleWrite"))
			pr.Compute(whodunit.Duration(size) * writePerByte)
		}()
		res.BytesSent += size
		res.Requests++
		st.next++
		if st.next < len(st.conn.Reqs) {
			// Persistent connection: wait for the next request — this is
			// the loop the §4.1 pruning keeps bounded.
			ioReady(l.NewEvent(hRead, st), 100*whodunit.Microsecond)
		}
	}}

	hReadReply = &whodunit.EventHandler{Name: "httpReadReply", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		st := ev.Data.(*connState)
		req := st.conn.Reqs[st.next]
		func() {
			defer pr.Exit(pr.Enter("httpReadReply"))
			pr.Compute(whodunit.Duration(cfg.Trace.Size(req)) * recvPerByte)
		}()
		cache.put(int(req.File))
		ioReady(l.NewEvent(hWrite, st), 50*whodunit.Microsecond)
	}}

	hConnect = &whodunit.EventHandler{Name: "commConnectHandle", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		st := ev.Data.(*connState)
		func() {
			defer pr.Exit(pr.Enter("commConnectHandle"))
			pr.Compute(connectCost)
		}()
		ioReady(l.NewEvent(hReadReply, st), originDelay)
	}}

	hRead = &whodunit.EventHandler{Name: "clientReadRequest", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		st := ev.Data.(*connState)
		req := st.conn.Reqs[st.next]
		func() {
			defer pr.Exit(pr.Enter("clientReadRequest"))
			pr.Compute(parseCost)
		}()
		if cache.get(int(req.File)) {
			res.Hits++
			ioReady(l.NewEvent(hWrite, st), 20*whodunit.Microsecond)
		} else {
			res.Misses++
			ioReady(l.NewEvent(hConnect, st), 30*whodunit.Microsecond)
		}
	}}

	hAccept = &whodunit.EventHandler{Name: "httpAccept", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		st := ev.Data.(*connState)
		func() {
			defer pr.Exit(pr.Enter("httpAccept"))
			pr.Compute(acceptCost)
		}()
		ioReady(l.NewEvent(hRead, st), 40*whodunit.Microsecond)
	}}

	// Inject connection arrivals: accepts become ready back-to-back. The
	// loop has dispatched nothing yet, so NewEvent captures the root
	// (external stimulus) context.
	for _, conn := range cfg.Trace.Conns {
		readyQ.Put(loop.NewEvent(hAccept, &connState{conn: conn}))
	}
	totalReqs := 0
	for _, c := range cfg.Trace.Conns {
		totalReqs += len(c.Reqs)
	}

	st.Go("comm_poll", func(th *whodunit.Thread, probe *whodunit.Probe) {
		pr = probe
		st.BindLoop(pr)
		defer pr.Exit(pr.Enter("main"))
		defer pr.Exit(pr.Enter("comm_poll"))
		for res.Requests < int64(totalReqs) {
			loop.Dispatch(readyQ.Get(th).(*whodunit.Event))
		}
	})

	rep := app.Run()
	res.Report = rep
	res.Elapsed = rep.Elapsed
	if res.Elapsed > 0 {
		res.ThroughputMbps = float64(res.BytesSent) * 8 / 1e6 / res.Elapsed.Seconds()
	}
	return res
}
