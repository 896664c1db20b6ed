package mesh

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"whodunit"
)

// This file is the differential oracle for the frame-program workers:
// refService is the blocking worker the package ran before its tiers
// became run-to-completion programs — a free-form Stage.Go thread per
// worker, handlers that block where they stand — kept, test-only, so
// that TestQuickMeshFrameParity can build one generated topology both
// ways and demand the same bytes.

// refHandler is a whole request's work as one blocking function.
type refHandler func(c *refCall)

// refCall is the blocking Call surface.
type refCall struct {
	svc     *Service
	th      *whodunit.Thread
	pr      *whodunit.Probe
	replyQ  *whodunit.Queue
	req     *Request
	pending bool
}

// refService declares a tier whose workers are blocking threads. The
// result is an ordinary *Service, so routers, Inject and OnComplete work
// on it unchanged.
func refService(t *Topology, name string, workers int, h refHandler, opts ...whodunit.StageOption) *Service {
	s := t.declare(name, workers, opts...)
	for w := 0; w < workers; w++ {
		replyQ := t.app.NewQueueOn(s.st.Shard(), fmt.Sprintf("%s-reply-%d", name, w))
		s.st.Go(fmt.Sprintf("%s-%d", name, w), func(th *whodunit.Thread, pr *whodunit.Probe) {
			c := &refCall{svc: s, th: th, pr: pr, replyQ: replyQ}
			for {
				c.serve(h, s.in.Get(th).(*Request))
			}
		})
	}
	return s
}

func (c *refCall) serve(h refHandler, req *Request) {
	s, pr := c.svc, c.pr
	c.req = req
	if req.entry {
		req.entry = false
		s.st.BeginTxn(pr, s.entryPath(req.Op)...)
	} else {
		s.st.Endpoint().Recv(pr, req.msg)
	}
	upstream := req.replyQ
	func() {
		defer pr.Exit(pr.EnterID(s.handleFrame(req.Op)))
		h(c)
	}()
	if c.pending {
		panic(fmt.Sprintf("mesh: %s handler returned with a downstream call still in flight (Forward without Await)", s.Name))
	}
	s.handled++
	if upstream != nil {
		req.msg = s.st.Endpoint().Send(pr, nil)
		req.replyQ = nil
		upstream.Put(req)
		return
	}
	if s.OnComplete != nil {
		s.OnComplete(req, c.th.Now())
	}
}

func (c *refCall) Compute(d whodunit.Duration) {
	if d > 0 {
		c.pr.Compute(d)
	}
}

func (c *refCall) Forward(to *Service) {
	if c.pending {
		panic(fmt.Sprintf("mesh: %s forwarded twice without Await", c.svc.Name))
	}
	c.pending = true
	c.req.msg = c.svc.st.Endpoint().Send(c.pr, nil)
	c.req.replyQ = c.replyQ
	to.in.Put(c.req)
}

func (c *refCall) Await() {
	if !c.pending {
		panic(fmt.Sprintf("mesh: %s awaited with no call in flight", c.svc.Name))
	}
	c.pending = false
	req := c.replyQ.Get(c.th).(*Request)
	c.svc.st.Endpoint().Recv(c.pr, req.msg)
	c.req = req
}

func (c *refCall) Invoke(to *Service) {
	c.Forward(to)
	c.Await()
}

// refProxy is Topology.Proxy over refService: the three modes as
// straight-line blocking code.
func refProxy(t *Topology, name string, mode Mode, workers int, route Router) *Service {
	costs := DefaultProxyCosts()
	return refService(t, name, workers, func(c *refCall) {
		req := c.req
		c.Compute(costs.Header)
		if mode == FullBuffering {
			c.Compute(costs.bytes(req.Size))
		}
		c.Forward(route.Route(req))
		if mode == StreamingWithBuffering {
			c.Compute(costs.bytes(req.Size))
		}
		c.Await()
		c.Compute(costs.Header)
		if mode != Streaming {
			c.Compute(costs.bytes(req.RespSize))
		}
	})
}

// parityCase is one generated topology and its load: a chain of depth
// tiers — frontend, depth-2 middle tiers (proxies of any mode, or
// two-call services shaped like the kv miss path), a ring of leaf
// shards — with open-loop arrivals.
type parityCase struct {
	mode     whodunit.Mode
	cores    int
	depth    int
	middle   []parityTier // top-down
	workers  [2]int       // frontend, each leaf shard
	shards   int
	arrivals []parityArrival
	plan     *whodunit.FaultPlan
}

type parityTier struct {
	twoCall bool // else a proxy of mode
	mode    Mode
	workers int
}

type parityArrival struct {
	at   whodunit.Time
	op   string
	key  string
	size int64
}

func genParityCase(rng *rand.Rand) parityCase {
	pc := parityCase{
		mode:    []whodunit.Mode{whodunit.ModeWhodunit, whodunit.ModeWhodunit, whodunit.ModeSampling, whodunit.ModeInstrumented}[rng.Intn(4)],
		cores:   1 + rng.Intn(4),
		depth:   1 + rng.Intn(6),
		workers: [2]int{1 + rng.Intn(3), 1 + rng.Intn(3)},
		shards:  1 + rng.Intn(3),
	}
	for i := 0; i < pc.depth-2; i++ {
		pc.middle = append(pc.middle, parityTier{
			twoCall: rng.Intn(3) == 0,
			mode:    Mode(rng.Intn(3)),
			workers: 1 + rng.Intn(3),
		})
	}
	at := whodunit.Time(0)
	for n := 8 + rng.Intn(25); n > 0; n-- {
		switch rng.Intn(3) {
		case 0: // same-instant burst
		case 1:
			at = at.Add(whodunit.Duration(rng.Intn(400)) * whodunit.Microsecond)
		case 2:
			at = at.Add(whodunit.Duration(1+rng.Intn(12)) * whodunit.Millisecond)
		}
		pc.arrivals = append(pc.arrivals, parityArrival{
			at:   at,
			op:   []string{"get", "set"}[rng.Intn(2)],
			key:  fmt.Sprintf("k%d", rng.Intn(8)),
			size: int64(rng.Intn(64 << 10)),
		})
	}
	if rng.Intn(6) == 0 {
		// A delay plan reorders messages on one hop (or, with no queue
		// named, on every hop and reply queue) without losing any.
		queue := ""
		if rng.Intn(2) == 0 {
			queue = "frontend-in"
		}
		pc.plan = &whodunit.FaultPlan{
			Seed: uint64(rng.Int63()),
			Messages: []whodunit.MessageFault{{
				Queue: queue, DelayProb: 0.3, Delay: whodunit.Duration(200+rng.Intn(2000)) * whodunit.Microsecond,
			}},
		}
	}
	return pc
}

const (
	parityParse   = 400 * whodunit.Microsecond
	parityRespond = 250 * whodunit.Microsecond
	parityProbe   = 300 * whodunit.Microsecond
	parityInstall = 150 * whodunit.Microsecond
	parityLeaf    = 1200 * whodunit.Microsecond
)

func parityKB(n int64) whodunit.Duration {
	return 2 * whodunit.Microsecond * whodunit.Duration((n+1023)/1024)
}

// parityTiers is the part of a build that differs between the two
// implementations: how a tier of each shape is declared.
type parityTiers struct {
	leaf     func(t *Topology, name string, workers int) *Service
	proxy    func(t *Topology, name string, mode Mode, workers int, route Router) *Service
	twoCall  func(t *Topology, name string, workers int, route Router) *Service
	frontend func(t *Topology, workers int, route Router) *Service // route nil: the frontend is the leaf
}

var frameTiers = parityTiers{
	leaf: func(t *Topology, name string, workers int) *Service {
		return t.Service(name, workers, func(c *Call) {
			req := c.Req()
			c.Compute(parityLeaf + parityKB(req.Size))
			req.RespSize = 512 + int64(KeyHash(req.Key)%4096)
		})
	},
	proxy: func(t *Topology, name string, mode Mode, workers int, route Router) *Service {
		return t.Proxy(name, mode, workers, route)
	},
	twoCall: func(t *Topology, name string, workers int, route Router) *Service {
		held := make([]struct {
			tok  int
			op   string
			size int64
		}, workers)
		restore := func(c *Call) { c.Req().Op = held[c.Worker()].op }
		store := func(c *Call) {
			w, req := &held[c.Worker()], c.Req()
			c.Probe().Exit(w.tok)
			w.op = req.Op
			req.Op = "store"
			c.Invoke(route.Route(req))
			c.Then(restore)
		}
		install := func(c *Call) {
			w, req := &held[c.Worker()], c.Req()
			req.Op, req.Size = w.op, w.size
			c.Compute(parityInstall + parityKB(req.RespSize))
			c.Then(store)
		}
		miss := func(c *Call) {
			w, req := &held[c.Worker()], c.Req()
			w.tok = c.Probe().Enter("cache_miss")
			w.op, w.size = req.Op, req.Size
			req.Op, req.Size = "fill", 96
			c.Invoke(route.Route(req))
			c.Then(install)
		}
		return t.Service(name, workers, func(c *Call) {
			c.Compute(parityProbe)
			c.Then(miss)
		})
	},
	frontend: func(t *Topology, workers int, route Router) *Service {
		respond := func(c *Call) { c.Compute(parityRespond + parityKB(c.Req().RespSize)) }
		call := func(c *Call) {
			c.Invoke(route.Route(c.Req()))
			c.Then(respond)
		}
		return t.Service("frontend", workers, func(c *Call) {
			c.Compute(parityParse + parityKB(c.Req().Size))
			if route != nil {
				c.Then(call)
			}
		})
	},
}

var refTiers = parityTiers{
	leaf: func(t *Topology, name string, workers int) *Service {
		return refService(t, name, workers, func(c *refCall) {
			c.Compute(parityLeaf + parityKB(c.req.Size))
			c.req.RespSize = 512 + int64(KeyHash(c.req.Key)%4096)
		})
	},
	proxy: refProxy,
	twoCall: func(t *Topology, name string, workers int, route Router) *Service {
		return refService(t, name, workers, func(c *refCall) {
			req := c.req
			c.Compute(parityProbe)
			func() {
				defer c.pr.Exit(c.pr.Enter("cache_miss"))
				op, size := req.Op, req.Size
				req.Op, req.Size = "fill", 96
				c.Invoke(route.Route(req))
				req.Op, req.Size = op, size
				c.Compute(parityInstall + parityKB(req.RespSize))
			}()
			op := req.Op
			req.Op = "store"
			c.Invoke(route.Route(req))
			req.Op = op
		})
	},
	frontend: func(t *Topology, workers int, route Router) *Service {
		return refService(t, "frontend", workers, func(c *refCall) {
			c.Compute(parityParse + parityKB(c.req.Size))
			if route != nil {
				c.Invoke(route.Route(c.req))
				c.Compute(parityRespond + parityKB(c.req.RespSize))
			}
		})
	},
}

type parityCompletion struct {
	stream int
	at     whodunit.Time
}

// run builds pc out of tiers, drives its arrivals to completion and
// returns the report bytes and the completions in order.
func (pc parityCase) run(tiers parityTiers) ([]byte, []parityCompletion, error) {
	opts := []whodunit.Option{whodunit.WithMode(pc.mode), whodunit.WithSeed(1), whodunit.WithCores(pc.cores)}
	if pc.plan != nil {
		opts = append(opts, whodunit.WithFaults(pc.plan))
	}
	app := whodunit.NewApp("parity", opts...)
	topo := New(app)
	var route Router
	if pc.depth > 1 {
		shards := make([]*Service, pc.shards)
		for i := range shards {
			shards[i] = tiers.leaf(topo, fmt.Sprintf("leaf-%d", i), pc.workers[1])
		}
		route = NewRing(4, shards...)
	}
	for i := len(pc.middle) - 1; i >= 0; i-- {
		m, name := pc.middle[i], fmt.Sprintf("mid-%d", i)
		if m.twoCall {
			route = To(tiers.twoCall(topo, name, m.workers, route))
		} else {
			route = To(tiers.proxy(topo, name, m.mode, m.workers, route))
		}
	}
	front := tiers.frontend(topo, pc.workers[0], route)
	var done []parityCompletion
	front.OnComplete = func(req *Request, now whodunit.Time) {
		done = append(done, parityCompletion{req.Stream, now})
	}
	for i, a := range pc.arrivals {
		req := &Request{Op: a.op, Key: a.key, Size: a.size, Stream: i}
		app.Sim().At(a.at, func() { front.Inject(req) })
	}
	rep := app.RunUntil(func() bool { return len(done) == len(pc.arrivals) })
	if len(done) != len(pc.arrivals) {
		return nil, nil, fmt.Errorf("completed %d of %d requests", len(done), len(pc.arrivals))
	}
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), done, nil
}

// TestQuickMeshFrameParity: on seeded generated topologies the frame
// workers and the blocking oracle produce the same report, byte for
// byte, and complete the same requests at the same instants in the same
// order.
func TestQuickMeshFrameParity(t *testing.T) {
	var cov struct {
		modes                          [3]int
		twoCall, faulted, bursts, deep int
		flat                           int
	}
	check := func(seed int64) bool {
		pc := genParityCase(rand.New(rand.NewSource(seed)))
		gotJSON, gotDone, err := pc.run(frameTiers)
		if err != nil {
			t.Errorf("seed %d: frames: %v", seed, err)
			return false
		}
		wantJSON, wantDone, err := pc.run(refTiers)
		if err != nil {
			t.Errorf("seed %d: oracle: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(gotDone, wantDone) {
			t.Errorf("seed %d (%+v): completions differ:\nframes %v\noracle %v", seed, pc, gotDone, wantDone)
			return false
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("seed %d (%+v): reports differ (%d vs %d bytes)", seed, pc, len(gotJSON), len(wantJSON))
			return false
		}
		for _, m := range pc.middle {
			if m.twoCall {
				cov.twoCall++
			} else {
				cov.modes[m.mode]++
			}
		}
		for i := 1; i < len(pc.arrivals); i++ {
			if pc.arrivals[i].at == pc.arrivals[i-1].at {
				cov.bursts++
			}
		}
		if pc.plan != nil {
			cov.faulted++
		}
		switch pc.depth {
		case 1:
			cov.flat++
		case 6:
			cov.deep++
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(18))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	if cov.modes[Streaming] == 0 || cov.modes[StreamingWithBuffering] == 0 || cov.modes[FullBuffering] == 0 ||
		cov.twoCall == 0 || cov.faulted == 0 || cov.bursts == 0 || cov.deep == 0 || cov.flat == 0 {
		t.Fatalf("generated cases left a shape unexercised: %+v", cov)
	}
	t.Logf("coverage over %d cases: %+v", cfg.MaxCount, cov)
}
