// Package mesh is a composable service-mesh topology layer assembled
// purely from the public whodunit primitives: services and proxy
// elements are stages with worker pools, hops are App.NewQueue queues
// carrying one reusable request envelope per in-flight request, and
// transaction context crosses every hop through the stages' ipc
// endpoints (Send/Recv) — so a mesh topology of any depth stitches into
// one transaction graph with no propagation code in the handlers.
//
// A Topology wraps an App. Service declares a tier (stage + input queue
// + workers running a Handler); Proxy declares a forwarding hop whose
// execution mode (see Mode) sets its charged CPU and queue behavior;
// NewRing consistent-hash-shards a tier. Handlers talk to downstream
// tiers through Call.Invoke (or Forward/Await, or InvokeRetry under
// fault plans) and requests enter the mesh through Service.Inject.
//
// Every worker is a run-to-completion thread (Stage.GoCoro): a request
// is handled as a chain of handler segments with the transaction
// context riding the continuation — the paper's event-driven/SEDA shape
// — so a blocked worker keeps no stack and no hop costs a coroutine
// switch. That fixes how handlers are written; see Handler.
//
// Mesh workers never terminate on their own: drive the app with
// RunUntil/RunFor or the serving harness.
package mesh

import (
	"fmt"

	"whodunit"
)

// Request is the reusable envelope of one mesh request — the same
// pointer travels the entire round trip (the tpcw envelope discipline),
// so a steady-state request allocates nothing. Handlers may rewrite Op,
// Key and Size before Invoke to issue a sub-request (restore them
// after); the serving tier reports its result through RespSize.
type Request struct {
	Op     string
	Key    string
	Size   int64 // request payload bytes
	Stream int

	// RespSize is the response payload in bytes, set by the tier that
	// answers; proxies charge their response-leg byte costs against it.
	RespSize int64

	// Start is the virtual injection time (set by Inject).
	Start whodunit.Time

	msg    whodunit.Msg
	replyQ *whodunit.Queue
	entry  bool
}

// Handler is one segment of a service's work for a request: straight-
// line, non-blocking code in worker context. The segment contract:
//
//   - A segment makes at most one blocking call — Compute (with d > 0),
//     Await, Invoke or InvokeRetry. The call does not block: it requests
//     the step, which the worker takes once the segment has returned. So
//     put it last; code written after it in the same segment runs before
//     the step, and may only do what does not depend on it.
//   - c.Then(next) names the segment that continues when the step
//     completes (or at once, if the segment requested none). A segment
//     that names no successor ends the request: the worker relays the
//     response upstream.
//   - State that must survive a step (an open probe-frame token, the
//     saved fields of a rewritten envelope) lives in a slice the handler
//     owns, indexed by c.Worker(). Segments are bound once, when the
//     topology is built; a closure per request would put an allocation on
//     every hop.
//
// A one-segment handler needs none of this: func(c *Call) {
// c.Compute(d) } is a whole service. The cache-miss path of
// internal/apps/meshkv is the worked example of the rest — a nested
// probe frame held open across a downstream call made with a rewritten
// envelope:
//
//	saved := make([]struct{ tok int; op string; size int64 }, workers)
//	var install, leave mesh.Handler
//	miss := func(c *mesh.Call) {
//		w, req := &saved[c.Worker()], c.Req()
//		w.tok = c.Probe().Enter("cache_miss")
//		w.op, w.size = req.Op, req.Size
//		req.Op, req.Size = "fill", 96
//		c.Invoke(db) // sent now; the reply is awaited after miss returns
//		c.Then(install)
//	}
//	install = func(c *mesh.Call) {
//		w, req := &saved[c.Worker()], c.Req()
//		req.Op, req.Size = w.op, w.size
//		cache[req.Key] = req.RespSize
//		c.Compute(installCost)
//		c.Then(leave)
//	}
//	leave = func(c *mesh.Call) { c.Probe().Exit(saved[c.Worker()].tok) }
//
// Breaking the contract — two blocking calls in one segment, Await with
// nothing in flight, Forward twice, finishing with a call in flight —
// panics in the worker at first execution, which crashes the run
// (App.Sim().Crashed()) with a message naming the service.
type Handler func(c *Call)

// Topology is a mesh under construction atop one App.
type Topology struct {
	app    *whodunit.App
	byName map[string]*Service
}

// New starts an empty topology on app.
func New(app *whodunit.App) *Topology {
	return &Topology{app: app, byName: map[string]*Service{}}
}

// Service is one mesh tier: a stage, its input queue, and a worker pool
// running the handler. Entry services additionally begin transactions
// (Inject) and complete them (OnComplete).
type Service struct {
	Name string

	// OnComplete, when set, observes each entry request as its response
	// leaves the mesh; now is the virtual completion time. The envelope
	// may be recycled from inside the hook.
	OnComplete func(req *Request, now whodunit.Time)

	topo    *Topology
	st      *whodunit.Stage
	in      *whodunit.Queue
	handler Handler
	handled int64

	// Per-op frame/path caches: built once per distinct op so the
	// steady-state request path concatenates no strings. A service sees
	// a handful of ops, so handle_<op> resolves to its interned frame
	// through a short slice scanned by name — no hash per hop. The
	// simulator runs one thread at a time, so neither cache needs a
	// lock.
	handleFrames []opFrame
	entryPaths   map[string][]string
}

// opFrame is one op's handle_<op> frame in the service's stage.
type opFrame struct {
	op string
	id whodunit.FrameID
}

// Service declares a tier with the given worker count and handler.
// Stage options (StageCPU, StageShard) pass through to the stage.
func (t *Topology) Service(name string, workers int, h Handler, opts ...whodunit.StageOption) *Service {
	if h == nil {
		panic(fmt.Sprintf("mesh: service %q has no handler", name))
	}
	s := t.declare(name, workers, opts...)
	s.handler = h
	for w := 0; w < workers; w++ {
		c := &Call{svc: s, worker: w,
			replyQ: t.app.NewQueueOn(s.st.Shard(), fmt.Sprintf("%s-reply-%d", name, w))}
		// Continuations are bound once here, so the steady-state request
		// path allocates nothing.
		c.recvF, c.nextF, c.replyF, c.attemptF, c.retryReplyF = c.recv, c.next, c.reply, c.attempt, c.retryReply
		s.st.GoCoro(fmt.Sprintf("%s-%d", name, w), c.begin)
	}
	return s
}

// declare validates and registers a tier — its stage and input queue —
// without starting workers.
func (t *Topology) declare(name string, workers int, opts ...whodunit.StageOption) *Service {
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("mesh: duplicate service %q", name))
	}
	if workers < 1 {
		panic(fmt.Sprintf("mesh: service %q needs at least one worker (got %d)", name, workers))
	}
	st := t.app.Stage(name, opts...)
	s := &Service{
		Name:       name,
		topo:       t,
		st:         st,
		in:         t.app.NewQueueOn(st.Shard(), name+"-in"),
		entryPaths: map[string][]string{},
	}
	t.byName[name] = s
	return s
}

// Stage returns the service's stage.
func (s *Service) Stage() *whodunit.Stage { return s.st }

// Handled returns how many requests the service has served — the
// shard-load counter of consistent-hash tiers.
func (s *Service) Handled() int64 { return s.handled }

// Inject puts an entry request into the service from scheduler or
// client context: the serving worker begins a fresh transaction for it,
// and when its response leaves the mesh OnComplete fires.
func (s *Service) Inject(req *Request) {
	req.entry = true
	req.msg = whodunit.Msg{}
	req.replyQ = nil
	req.Start = s.topo.app.Sim().Now()
	s.in.Put(req)
}

// Ingress is a cross-domain injection channel into an entry service of
// a sharded app (see whodunit.WithShards): Inject from shard 0's
// scheduler context ships the envelope over an App.Pipe, arriving at
// the service's input queue `latency` later. Request.Start is the
// arrival time — the transport hop is modeled, not measured — so
// latency statistics are identical between serial and sharded runs.
// Create every Ingress before the app run starts.
type Ingress struct {
	svc     *Service
	pipe    *whodunit.Pipe
	latency whodunit.Duration
}

// Ingress returns an injection channel into s with the given transport
// latency (which must be positive: it is lookahead the epoch scheduler
// shards time by).
func (s *Service) Ingress(latency whodunit.Duration) *Ingress {
	return &Ingress{svc: s, pipe: s.topo.app.Pipe(0, s.in, latency), latency: latency}
}

// Inject ships an entry request over the ingress pipe. Call it from
// shard 0's execution (scheduler callbacks, e.g. a trace replay).
func (in *Ingress) Inject(req *Request) {
	req.entry = true
	req.msg = whodunit.Msg{}
	req.replyQ = nil
	req.Start = in.svc.topo.app.Sim().Now().Add(in.latency)
	in.pipe.Send(req)
}

func (s *Service) handleFrame(op string) whodunit.FrameID {
	for i := range s.handleFrames {
		if s.handleFrames[i].op == op {
			return s.handleFrames[i].id
		}
	}
	id := s.st.Profiler().Frames().ID("handle_" + op)
	s.handleFrames = append(s.handleFrames, opFrame{op: op, id: id})
	return id
}

func (s *Service) entryPath(op string) []string {
	p, ok := s.entryPaths[op]
	if !ok {
		p = []string{"rpc_" + op}
		s.entryPaths[op] = p
	}
	return p
}

// Call is a worker's view of the request it is serving — the probe to
// charge CPU against and the downstream calling surface — and the
// worker itself: a run-to-completion state machine that takes a request
// off the service's input queue, runs the handler's segments with the
// step each one requested in between, relays the response, and goes
// back to the queue. One Call per worker, reused across requests.
type Call struct {
	svc    *Service
	worker int
	th     *whodunit.Thread
	pr     *whodunit.Probe
	replyQ *whodunit.Queue

	// The request in service. begin resets all of it, so that a worker
	// respawned after a crash inherits nothing from the request it was
	// killed in.
	req       *Request
	upstream  *whodunit.Queue // where the response goes; nil at the entry tier
	tok       int             // the handle_<op> frame
	pending   bool            // a Forward awaits its response
	delivered bool            // outcome of the last InvokeRetry

	// What the running segment asked for.
	step stepKind
	d    whodunit.Duration // stepCompute
	then Handler

	// InvokeRetry's loop state.
	to       *Service
	pol      whodunit.RetryPolicy
	try      int
	backoff  whodunit.Duration
	retryTok int

	recvF, nextF, replyF, attemptF, retryReplyF whodunit.Frame
}

// stepKind is the blocking step a segment requested.
type stepKind uint8

const (
	stepNone stepKind = iota
	stepCompute
	stepAwait
	stepRetry
)

// begin is the worker's program: it runs at thread start, and again on
// a fresh thread and probe when a crashed stage restarts.
func (c *Call) begin(th *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
	c.th, c.pr = th, pr
	c.req, c.upstream, c.pending, c.delivered = nil, nil, false, false
	return c.idle
}

// idle waits for the next request.
func (c *Call) idle(co *whodunit.Coro, _ any) whodunit.Step {
	return co.Get(c.svc.in.Raw(), c.recvF)
}

// recv takes one request: restore (or, at the entry tier, begin) its
// transaction context, open the handle_<op> frame, run the handler.
func (c *Call) recv(co *whodunit.Coro, v any) whodunit.Step {
	s := c.svc
	req := s.in.Check(v).(*Request)
	c.req = req
	if req.entry {
		req.entry = false
		s.st.BeginTxn(c.pr, s.entryPath(req.Op)...)
	} else {
		s.st.Endpoint().Recv(c.pr, req.msg)
	}
	c.upstream = req.replyQ
	c.tok = c.pr.EnterID(s.handleFrame(req.Op))
	return c.run(co, s.handler)
}

// run executes segments from h on, until one requests a step (taken
// here, resuming in the segment it named) or the chain ends.
func (c *Call) run(co *whodunit.Coro, h Handler) whodunit.Step {
	for h != nil {
		c.step, c.then = stepNone, nil
		h(c)
		switch c.step {
		case stepCompute:
			return c.pr.ComputeStep(co, c.d, c.nextF)
		case stepAwait:
			return co.Get(c.replyQ.Raw(), c.replyF)
		case stepRetry:
			return co.GetTimeout(c.replyQ.Raw(), c.pol.Timeout, c.retryReplyF)
		}
		h = c.then
	}
	return c.finish(co)
}

// next resumes after a completed step.
func (c *Call) next(co *whodunit.Coro, _ any) whodunit.Step { return c.run(co, c.then) }

// reply completes an Await: the forwarded envelope is back, carrying the
// context to restore.
func (c *Call) reply(co *whodunit.Coro, v any) whodunit.Step {
	c.accept(v)
	return c.run(co, c.then)
}

// accept takes a response off the reply queue: it is the request again,
// with the downstream's context to restore.
func (c *Call) accept(v any) {
	req := c.replyQ.Check(v).(*Request)
	c.svc.st.Endpoint().Recv(c.pr, req.msg)
	c.req = req
	c.pending = false
}

// finish closes the request and relays the response upstream (or
// completes the transaction at the entry tier), then waits for the next.
func (c *Call) finish(co *whodunit.Coro) whodunit.Step {
	s, req := c.svc, c.req
	c.pr.Exit(c.tok)
	if c.pending {
		panic(fmt.Sprintf("mesh: %s handler returned with a downstream call still in flight (Forward without Await)", s.Name))
	}
	s.handled++
	if c.upstream != nil {
		req.msg = s.st.Endpoint().Send(c.pr, nil)
		req.replyQ = nil
		c.upstream.Put(req)
	} else if s.OnComplete != nil {
		// The worker thread's clock, not App.Sim's: on a sharded app
		// this service may live on another time domain.
		s.OnComplete(req, c.th.Now())
	}
	return c.idle(co, nil)
}

// Req returns the request being served.
func (c *Call) Req() *Request { return c.req }

// Probe returns the worker's probe, for Enter/Exit frames.
func (c *Call) Probe() *whodunit.Probe { return c.pr }

// Thread returns the worker's simulator thread. It is a
// run-to-completion thread: its blocking methods panic.
func (c *Call) Thread() *whodunit.Thread { return c.th }

// Service returns the service this call runs in.
func (c *Call) Service() *Service { return c.svc }

// Worker returns the worker's index within its service, 0 ≤ Worker() <
// the worker count: the key for state a handler keeps across steps.
func (c *Call) Worker() int { return c.worker }

// Now returns the current virtual time (of the worker's time domain).
func (c *Call) Now() whodunit.Time { return c.th.Now() }

// Then names the segment that continues the request once this one has
// returned and the step it requested, if any, has completed.
func (c *Call) Then(next Handler) { c.then = next }

// request records the segment's one blocking call.
func (c *Call) request(k stepKind) {
	if c.step != stepNone {
		panic(fmt.Sprintf("mesh: %s handler made two blocking calls in one segment (continue with Then)", c.svc.Name))
	}
	c.step = k
}

// Compute charges d of CPU to the current context, after the segment
// returns. A non-positive d is no call at all.
func (c *Call) Compute(d whodunit.Duration) {
	if d > 0 {
		c.request(stepCompute)
		c.d = d
	}
}

// Forward sends the request envelope to the next tier, now, and is not
// a blocking call: the worker stays schedulable (a buffering proxy
// charges its copy cost next, overlapping the downstream). At most one
// downstream call may be in flight per request; pair with Await.
func (c *Call) Forward(to *Service) {
	if c.pending {
		panic(fmt.Sprintf("mesh: %s forwarded twice without Await", c.svc.Name))
	}
	c.pending = true
	c.req.msg = c.svc.st.Endpoint().Send(c.pr, nil)
	c.req.replyQ = c.replyQ
	to.in.Put(c.req)
}

// Await waits, after the segment returns, until the forwarded request's
// response is back, and restores this worker's transaction context from
// it before the next segment runs.
func (c *Call) Await() {
	if !c.pending {
		panic(fmt.Sprintf("mesh: %s awaited with no call in flight", c.svc.Name))
	}
	c.request(stepAwait)
}

// Invoke is Forward immediately followed by Await — a synchronous
// downstream RPC, its response visible to the next segment.
func (c *Call) Invoke(to *Service) {
	c.Forward(to)
	c.Await()
}

// InvokeRetry is Invoke under a retry policy: each attempt re-sends the
// envelope and waits at most pol.Timeout for the response, in the shape
// of Stage.Retry — the first attempt bare, every later one inside a
// "retry" probe frame with the doubling backoff slept before it, so
// retries surface as retry context in the CCT. The next segment reads
// the outcome from Delivered.
//
// Built for drop-fault plans on mesh input queues, where a dropped
// message means the response never comes. The timeout must sit above
// the worst-case healthy round trip: a timeout must always mean the
// attempt's message was dropped, never that the response is merely late
// (a late response would desync the per-worker reply queue).
func (c *Call) InvokeRetry(to *Service, pol whodunit.RetryPolicy) {
	if pol.Attempts < 1 {
		panic("whodunit: RetryPolicy needs at least one attempt")
	}
	c.request(stepRetry)
	c.to, c.pol, c.try, c.backoff = to, pol, 0, pol.Backoff
	c.Forward(to)
}

// Delivered reports whether the last InvokeRetry got its response;
// false means every attempt timed out.
func (c *Call) Delivered() bool { return c.delivered }

// retryReply ends one InvokeRetry attempt, by response or by timeout,
// and starts the next unless that settles the call.
func (c *Call) retryReply(co *whodunit.Coro, v any) whodunit.Step {
	ok := !co.TimedOut()
	if ok {
		c.accept(v)
	}
	c.pending = false
	if c.try > 0 {
		c.pr.Exit(c.retryTok)
	}
	c.try++
	if ok || c.try == c.pol.Attempts {
		c.delivered = ok
		return c.run(co, c.then)
	}
	c.retryTok = c.pr.Enter("retry")
	if c.backoff > 0 {
		d := c.backoff
		c.backoff *= 2
		return co.Sleep(d, c.attemptF)
	}
	return c.attempt(co, nil)
}

func (c *Call) attempt(co *whodunit.Coro, _ any) whodunit.Step {
	c.Forward(c.to)
	return co.GetTimeout(c.replyQ.Raw(), c.pol.Timeout, c.retryReplyF)
}

// Router picks the downstream service for a request — the routing side
// of a proxy hop. To and Ring are the built-in routers.
type Router interface {
	Route(req *Request) *Service
}

type single struct{ s *Service }

func (r single) Route(*Request) *Service { return r.s }

// To routes every request to one service.
func To(s *Service) Router { return single{s} }

// Proxy declares a forwarding hop with the default cost model: a
// service whose handler inspects, forwards per the execution mode, and
// relays the response. The router picks the downstream per request
// (consistent-hash sharding plugs in here).
func (t *Topology) Proxy(name string, mode Mode, workers int, route Router, opts ...whodunit.StageOption) *Service {
	return t.ProxyWith(name, mode, workers, route, DefaultProxyCosts(), opts...)
}

// ProxyWith is Proxy with an explicit cost model.
func (t *Topology) ProxyWith(name string, mode Mode, workers int, route Router, costs ProxyCosts, opts ...whodunit.StageOption) *Service {
	if route == nil {
		panic(fmt.Sprintf("mesh: proxy %q has no router", name))
	}
	// One segment per charge, since each Compute is a step of its own;
	// the mode decides which byte charges exist.
	var bufferReq, forward, await, relay, bufferResp Handler
	inspect := func(c *Call) {
		c.Compute(costs.Header)
		if mode == FullBuffering {
			c.Then(bufferReq)
		} else {
			c.Then(forward)
		}
	}
	bufferReq = func(c *Call) {
		// Store-and-forward: the whole request is buffered (and charged)
		// before the downstream sees the first byte.
		c.Compute(costs.bytes(c.Req().Size))
		c.Then(forward)
	}
	forward = func(c *Call) {
		req := c.Req()
		c.Forward(route.Route(req))
		if mode == StreamingWithBuffering {
			// The retained copy is built while the downstream already
			// works on the forwarded bytes: worker occupancy, not
			// request latency.
			c.Compute(costs.bytes(req.Size))
		}
		c.Then(await)
	}
	await = func(c *Call) {
		c.Await()
		c.Then(relay)
	}
	relay = func(c *Call) {
		c.Compute(costs.Header)
		if mode != Streaming {
			c.Then(bufferResp)
		}
	}
	bufferResp = func(c *Call) {
		// Response leg: buffering modes materialise the response before
		// relaying it upstream.
		c.Compute(costs.bytes(c.Req().RespSize))
	}
	return t.Service(name, workers, inspect, opts...)
}
