package tpcw

import (
	"fmt"

	"whodunit"
	"whodunit/internal/minidb"
	"whodunit/internal/vclock"
	"whodunit/internal/workload"
)

// MegaConfig parameterises the mega-scale TPC-W deployment: R replicated
// web pods (a Squid front and a Tomcat servlet container each, with their
// own share of the clients) load-balanced round-robin, all backed by one
// shared MySQL. With Sharded the pods live on their own time domains —
// replica r on shard r+1, the database on shard 0 — and the run
// parallelises across GOMAXPROCS workers; without it the identical
// topology runs on a single domain. Either way the output is
// bit-identical: the tiers exchange requests over App.Pipe links whose
// latency (HopLatency) is the epoch lookahead, so the merge order is a
// function of the program, not the layout.
type MegaConfig struct {
	Clients  int // total, partitioned round-robin across replicas
	Replicas int
	Sharded  bool

	Duration       whodunit.Duration
	Mode           whodunit.Mode
	ItemEngine     minidb.Engine
	ServletCaching bool // per-pod result caches (clause 6.3.3.1)
	Seed           uint64

	TomcatWorkers int // per replica
	SquidWorkers  int // per replica
	DBWorkers     int
	ThinkMean     whodunit.Duration // 0 = TPC-W default (7s)
	// HopLatency is the app-server <-> database network latency; it is
	// also the conservative lookahead, so the epoch width. 0 = 1ms.
	HopLatency whodunit.Duration
	// Mix selects the interaction mix; nil means workload.BrowsingMix.
	Mix map[string]float64
}

// DefaultMegaConfig is the scale baseline: three pods, browsing mix,
// MyISAM item table, sharded.
func DefaultMegaConfig(clients int) MegaConfig {
	return MegaConfig{
		Clients:       clients,
		Replicas:      3,
		Sharded:       true,
		Duration:      3 * whodunit.Minute,
		Mode:          whodunit.ModeWhodunit,
		ItemEngine:    minidb.EngineMyISAM,
		Seed:          1,
		TomcatWorkers: 12,
		SquidWorkers:  4,
		DBWorkers:     6,
		HopLatency:    whodunit.Millisecond,
	}
}

// MegaResult carries the scale experiment's metrics: the unified report
// plus client-side counts merged across pods in replica order.
type MegaResult struct {
	Config           MegaConfig
	Report           *whodunit.Report
	Elapsed          whodunit.Duration
	Completed        int64
	PerType          map[string]*TypeStats
	ThroughputPerMin float64
	Epochs           whodunit.EpochStats // what the epoch loop did; differs between layouts, unlike all of the above
}

// megaRequest is the envelope for the replicated deployment: one per
// client, reused around the whole round trip exactly like request, plus
// a reply pipe for the database leg — the issuing Tomcat worker's reply
// queue lives on the pod's domain, so MySQL answers over a cross-domain
// link rather than a direct Put.
type megaRequest struct {
	msg     whodunit.Msg
	web     webReq
	q       dbQuery
	replyQ  *whodunit.Queue // same-domain reply hop (squid->client, tomcat->squid)
	dbReply *whodunit.Pipe  // mysql -> issuing tomcat worker
}

// podStats is one replica's client-side accounting. Each pod's clients
// run on that pod's time domain, so giving every pod its own struct
// keeps the hot-path counters domain-private; the pods are merged in
// replica order after the run.
type podStats struct {
	completed int64
	perType   map[string]*TypeStats
}

// MegaRun executes the replicated deployment and collects the results.
func MegaRun(cfg MegaConfig) *MegaResult {
	if cfg.Clients <= 0 {
		panic("tpcw: need at least one client")
	}
	if cfg.Replicas <= 0 {
		panic("tpcw: need at least one replica")
	}
	think := cfg.ThinkMean
	if think == 0 {
		think = 7 * whodunit.Second
	}
	hop := cfg.HopLatency
	if hop == 0 {
		hop = whodunit.Millisecond
	}
	mixWeights := cfg.Mix
	if mixWeights == nil {
		mixWeights = workload.BrowsingMix
	}

	shards := 1
	if cfg.Sharded {
		shards = cfg.Replicas + 1
	}
	app := whodunit.NewApp("tpcw-mega",
		whodunit.WithMode(cfg.Mode),
		whodunit.WithShards(shards))
	s := app.Sim()

	// Shared database tier on shard 0.
	mysqlSt := app.Stage("mysql", whodunit.StageCPU(1))
	mysqlQ := app.NewQueueOn(0, "mysql-in")
	mysqlEP := mysqlSt.Endpoint()
	db := minidb.New(s, "mysql", mysqlSt.CPU())
	item, orderLine, customer, orders, author := loadTables(db, cfg.ItemEngine, cfg.Seed)

	for w := 0; w < cfg.DBWorkers; w++ {
		mysqlSt.Go(fmt.Sprintf("mysqld-%d", w), func(th *whodunit.Thread, pr *whodunit.Probe) {
			for {
				req := mysqlQ.Get(th).(*megaRequest)
				mysqlEP.Recv(pr, req.msg)
				q := req.q
				func() {
					defer pr.Exit(pr.Enter("dispatch_query"))
					execQuery(db, pr, q, item, orderLine, customer, orders, author)
				}()
				req.msg = mysqlEP.Send(pr, nil)
				req.dbReply.Send(req)
			}
		})
	}

	servletFrame := make(map[string]string, len(workload.Interactions))
	for _, name := range workload.Interactions {
		servletFrame[name] = "servlet_" + name
	}

	end := whodunit.Time(cfg.Duration)
	pods := make([]*podStats, cfg.Replicas)

	for r := 0; r < cfg.Replicas; r++ {
		r := r
		shard := r + 1
		pod := &podStats{perType: make(map[string]*TypeStats)}
		for _, name := range workload.Interactions {
			pod.perType[name] = &TypeStats{}
		}
		pods[r] = pod

		squidSt := app.Stage(fmt.Sprintf("squid-%d", r),
			whodunit.StageCPU(1), whodunit.StageShard(shard))
		tomcatSt := app.Stage(fmt.Sprintf("tomcat-%d", r),
			whodunit.StageCPU(2), whodunit.StageShard(shard))
		squidQ := app.NewQueueOn(shard, fmt.Sprintf("squid-in-%d", r))
		tomcatQ := app.NewQueueOn(shard, fmt.Sprintf("tomcat-in-%d", r))
		squidEP := squidSt.Endpoint()
		tomcatEP := tomcatSt.Endpoint()

		// The pod's one request link into the shared database.
		toDB := app.Pipe(shard, mysqlQ, hop)

		// Per-pod servlet caches: each app server caches independently.
		type cacheEntry struct{ until whodunit.Time }
		bestSellersCache := make(map[int64]cacheEntry)
		searchCache := make(map[int64]cacheEntry)

		for w := 0; w < cfg.TomcatWorkers; w++ {
			// The worker's reply queue and its return link from the
			// database, declared before the run starts (cross-domain
			// links must exist before the epoch loop arms).
			replyQ := app.NewQueueOn(shard, fmt.Sprintf("tomcat-%d-%d-reply", r, w))
			fromDB := app.Pipe(0, replyQ, hop)
			tomcatSt.Go(fmt.Sprintf("tomcat-%d", w), func(th *whodunit.Thread, pr *whodunit.Probe) {
				for {
					req := tomcatQ.Get(th).(*megaRequest)
					tomcatEP.Recv(pr, req.msg)
					wr := req.web
					upstream := req.replyQ
					func() {
						defer pr.Exit(pr.Enter(servletFrame[wr.interaction]))
						pr.ComputeN(2*whodunit.Millisecond, 400) // servlet + page generation

						needDB := true
						if cfg.ServletCaching {
							switch wr.interaction {
							case workload.BestSellers:
								if e, ok := bestSellersCache[wr.subject]; ok && th.Now() < e.until {
									needDB = false
								}
							case workload.SearchResult:
								if e, ok := searchCache[wr.subject]; ok && th.Now() < e.until {
									needDB = false
								}
							}
						}
						if needDB {
							func() {
								defer pr.Exit(pr.Enter("db_rpc"))
								req.msg = tomcatEP.Send(pr, nil)
								req.q = dbQuery{interaction: wr.interaction, subject: wr.subject, itemID: wr.itemID}
								req.dbReply = fromDB
								toDB.Send(req)
								resp := replyQ.Get(th).(*megaRequest)
								tomcatEP.Recv(pr, resp.msg)
							}()
							if cfg.ServletCaching {
								switch wr.interaction {
								case workload.BestSellers:
									bestSellersCache[wr.subject] = cacheEntry{until: th.Now().Add(30 * whodunit.Second)}
								case workload.SearchResult:
									searchCache[wr.subject] = cacheEntry{until: th.Now().Add(30 * whodunit.Second)}
								}
							}
						}
						pr.ComputeN(whodunit.Millisecond, 200) // response rendering
					}()
					req.msg = tomcatEP.Send(pr, nil)
					req.replyQ = nil
					upstream.Put(req)
				}
			})
		}

		// The squid workers are run-to-completion coroutines (the
		// Stage.GoCoro showcase): the hot path — dequeue, forward to
		// Tomcat, await the response, reply upstream — runs as direct
		// continuation calls on the domain goroutine, with CPU demand
		// charged through Probe.ComputeStep. The frames perform exactly
		// the operations of the old goroutine body, in the same order,
		// so the profile and goldens are bit-identical.
		for w := 0; w < cfg.SquidWorkers; w++ {
			sw := &megaSquid{app: app, shard: shard, squidQ: squidQ, tomcatQ: tomcatQ, ep: squidEP}
			sw.recvF, sw.fwdF, sw.respF, sw.doneF = sw.recv, sw.fwd, sw.resp, sw.done
			squidSt.GoCoro(fmt.Sprintf("squid-%d", w), sw.begin)
		}

		// The pod's share of the clients: global index c keeps the RNG
		// streams layout-independent; c % Replicas is the load balancer.
		// Like the single-pod clients, each one is a run-to-completion
		// coroutine — this is what makes the million-client closed loop
		// affordable: a client costs one small struct instead of a
		// goroutine stack, and each round trip costs continuation calls
		// instead of channel hand-offs.
		for c := r; c < cfg.Clients; c += cfg.Replicas {
			mix := workload.NewMixSampler(cfg.Seed+uint64(c)*7919, mixWeights)
			mix.SetThinkMean(think)
			crng := vclock.NewRNG(cfg.Seed + uint64(c)*104729)
			cl := &megaClient{
				app: app, shard: shard, squidQ: squidQ, mix: mix, crng: crng,
				end: end, think: think, pod: pod,
			}
			cl.issueF, cl.replyF = cl.issue, cl.reply
			app.GoCoroShard(shard, fmt.Sprintf("client-%d", c), cl.begin)
		}
	}

	// The clients stop issuing at the configured end and the stage
	// workers park on empty queues, so the run terminates on its own
	// once the last in-flight replies drain.
	rep := app.Run()

	res := &MegaResult{
		Config:  cfg,
		Report:  rep,
		Elapsed: rep.Elapsed,
		PerType: make(map[string]*TypeStats),
		Epochs:  app.EpochStats(),
	}
	for _, name := range workload.Interactions {
		res.PerType[name] = &TypeStats{}
	}
	for _, pod := range pods {
		res.Completed += pod.completed
		for _, name := range workload.Interactions {
			res.PerType[name].Count += pod.perType[name].Count
			res.PerType[name].TotalResp += pod.perType[name].TotalResp
		}
	}
	if res.Elapsed > 0 {
		res.ThroughputPerMin = float64(res.Completed) / res.Elapsed.Seconds() * 60
	}
	return res
}

// megaClient is the replicated deployment's closed-loop client as a
// run-to-completion state machine — the mega-scale twin of client, with
// the pod-private stats struct in place of Result and a shard-pinned
// reply queue. Frames: begin (reply queue, envelope, desynchronise) →
// issue → reply → issue → ...
type megaClient struct {
	app    *whodunit.App
	shard  int
	squidQ *whodunit.Queue
	replyQ *whodunit.Queue
	env    *megaRequest
	mix    *workload.MixSampler
	crng   *whodunit.RNG
	end    whodunit.Time
	think  whodunit.Duration
	pod    *podStats

	name  string        // interaction in flight
	start whodunit.Time // round-trip start

	issueF, replyF whodunit.Frame
}

func (cl *megaClient) begin(c *whodunit.Coro, _ any) whodunit.Step {
	cl.replyQ = cl.app.NewQueueOn(cl.shard, c.Thread().Name+"-reply")
	cl.env = &megaRequest{}
	return c.Sleep(whodunit.Duration(cl.crng.Intn(int(cl.think))), cl.issueF)
}

func (cl *megaClient) issue(c *whodunit.Coro, _ any) whodunit.Step {
	if c.Now() >= cl.end {
		return c.End()
	}
	cl.name = cl.mix.Next()
	cl.env.msg = whodunit.Msg{}
	cl.env.web = webReq{
		interaction: cl.name,
		subject:     int64(cl.crng.Intn(24)),
		itemID:      int64(cl.crng.Intn(10000)),
	}
	cl.env.replyQ = cl.replyQ
	cl.start = c.Now()
	cl.squidQ.Put(cl.env)
	return c.Get(cl.replyQ.Raw(), cl.replyF)
}

func (cl *megaClient) reply(c *whodunit.Coro, v any) whodunit.Step {
	cl.replyQ.Check(v)
	if c.Now() >= cl.end {
		return c.End()
	}
	st := cl.pod.perType[cl.name]
	st.Count++
	st.TotalResp += c.Now().Sub(cl.start)
	cl.pod.completed++
	return c.Sleep(cl.mix.ThinkTime(), cl.issueF)
}

// megaSquid is one Squid front-tier worker as a run-to-completion state
// machine: recv (dequeue a request, open the forward_dynamic frame,
// charge the forward cost) → fwd (send to Tomcat, await its reply) →
// resp (charge the response cost) → done (close the frame, reply
// upstream, go back to the input queue). The probe frame opened in recv
// stays open across the Tomcat round trip, exactly like the deferred
// Exit of the old goroutine body.
type megaSquid struct {
	app     *whodunit.App
	shard   int
	squidQ  *whodunit.Queue
	tomcatQ *whodunit.Queue
	ep      *whodunit.Endpoint
	pr      *whodunit.Probe
	replyQ  *whodunit.Queue

	req      *megaRequest
	upstream *whodunit.Queue
	tok      int // forward_dynamic frame token

	recvF, fwdF, respF, doneF whodunit.Frame
}

func (sw *megaSquid) begin(th *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
	sw.pr = pr
	sw.replyQ = sw.app.NewQueueOn(sw.shard, th.Name+"-reply")
	return sw.idle
}

func (sw *megaSquid) idle(c *whodunit.Coro, _ any) whodunit.Step {
	return c.Get(sw.squidQ.Raw(), sw.recvF)
}

func (sw *megaSquid) recv(c *whodunit.Coro, v any) whodunit.Step {
	sw.req = sw.squidQ.Check(v).(*megaRequest)
	sw.ep.Recv(sw.pr, sw.req.msg)
	sw.upstream = sw.req.replyQ
	sw.tok = sw.pr.Enter("forward_dynamic")
	return sw.pr.ComputeStep(c, 300*whodunit.Microsecond, sw.fwdF)
}

func (sw *megaSquid) fwd(c *whodunit.Coro, _ any) whodunit.Step {
	sw.req.msg = sw.ep.Send(sw.pr, nil)
	sw.req.replyQ = sw.replyQ
	sw.tomcatQ.Put(sw.req)
	return c.Get(sw.replyQ.Raw(), sw.respF)
}

func (sw *megaSquid) resp(c *whodunit.Coro, v any) whodunit.Step {
	resp := sw.replyQ.Check(v).(*megaRequest)
	sw.ep.Recv(sw.pr, resp.msg)
	return sw.pr.ComputeStep(c, 200*whodunit.Microsecond, sw.doneF)
}

func (sw *megaSquid) done(c *whodunit.Coro, _ any) whodunit.Step {
	sw.pr.Exit(sw.tok)
	sw.req.msg = sw.ep.Send(sw.pr, nil)
	sw.req.replyQ = nil
	sw.upstream.Put(sw.req)
	return c.Get(sw.squidQ.Raw(), sw.recvF)
}
