// Package tpcw models the TPC-W online bookstore of §8.4: fourteen
// interactions implemented as servlets in a Tomcat-like container, fronted
// by a Squid-like pass-through tier and backed by a MySQL-like database
// (minidb). The model is an App whose Stages — each with its own private
// CPU — exchange requests over queues with ipc's synopsis piggy-backing
// (the stages' endpoints), so each interaction establishes its own
// transaction context at the database: the separation that lets Table 1
// attribute MySQL CPU and crosstalk per interaction.
//
// Two optimisations from the paper are switchable:
//
//   - ItemEngine: the item table as MyISAM (table locks — AdminConfirm
//     blocks and is blocked by every item reader) or InnoDB (row locks —
//     Figure 11's first optimisation);
//   - ServletCaching: caching BestSellers and SearchResult results in the
//     servlets per TPC-W clause 6.3.3.1 (Figure 11/12's second
//     optimisation).
//
// One model, two layouts, selected by Config.Replicas. At 0 it is the
// paper's deployment: one squid, one tomcat, one mysql, crosstalk
// monitored (minidb's locks report to the app's monitor). At R ≥ 1, R web
// pods (squid-r and tomcat-r, each with its own servlet caches and a
// round-robin share of the clients) front the one mysql; with Sharded,
// pod r runs on time domain r+1 and the database on domain 0, without it
// the same program runs on one domain and reports the same bytes. Every
// tier body exists once, as a run-to-completion frame program
// (Stage.GoCoro): client, squid, tomcat and mysqld are four small state
// machines whose blocking operations are continuation calls on the
// dispatcher's stack, so a whole interaction — the database's statements
// included, which minidb's Exec steps without a stack — costs no thread
// switch (Sim.Switches reads 0 after a run). What differs between the
// layouts is exactly what Config.layout returns: the app and stage
// names, and mysql declared after or before the web tiers, because both
// layouts' reports are pinned byte for byte;
// a direct Put or an App.Pipe of hopLatency between pod and database,
// because time domains may only talk through a latency-bearing pipe; the
// crosstalk monitor, because its classifier reads every pod's chain
// registry from the database's scheduler, which collapses sharding; and
// stopping at Duration or draining the in-flight replies, because a stop
// predicate is evaluated at epoch barriers, which differ with Sharded.
package tpcw

import (
	"fmt"

	"whodunit"
	"whodunit/internal/minidb"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
	"whodunit/internal/workload"
)

// chainKey is a comparable, rendering-free map key for a synopsis chain.
// The crosstalk classifier resolves a context's chain on every observed
// lock wait, so keying the registry by rendered strings put a fmt string
// build on the lock hot path. Chains longer than the inline array (which
// the three-tier model never produces) fall back to the rendered form,
// keeping the key injective in all cases.
type chainKey struct {
	n   int
	syn [6]tranctx.Synopsis
	str string // rendered fallback when n > len(syn)
}

func chainKeyOf(ch tranctx.Chain) chainKey {
	k := chainKey{n: len(ch)}
	if len(ch) > len(k.syn) {
		k.str = ch.String()
		return k
	}
	copy(k.syn[:], ch)
	return k
}

// hopLatency is the replicated layout's app-server <-> database network
// latency, and so the epoch width of a sharded run.
const hopLatency = whodunit.Millisecond

// Config parameterises one TPC-W run. The per-tier CPU costs are not in
// it: they are calibration constants of the model, fixed once against
// the paper's Table 1 — the squid and tomcat charges in their frames
// below, the database's in minidb.DefaultCost.
type Config struct {
	Clients        int               // total, partitioned round-robin across pods
	Duration       whodunit.Duration // virtual run length
	Mode           whodunit.Mode
	ItemEngine     minidb.Engine
	ServletCaching bool // per-pod result caches (clause 6.3.3.1)
	Seed           uint64

	// Replicas selects the layout: 0 is the paper's single deployment,
	// R ≥ 1 is R web pods before one database (see the package comment).
	// Sharded puts pod r on time domain r+1; it means nothing at
	// Replicas 0.
	Replicas int
	Sharded  bool

	TomcatWorkers int // per pod
	SquidWorkers  int // per pod
	DBWorkers     int
	ThinkMean     whodunit.Duration // 0 = TPC-W default (7s)
	// Mix selects the interaction mix; nil means workload.BrowsingMix.
	Mix map[string]float64
}

// DefaultConfig is the paper's baseline: browsing mix, MyISAM item table,
// no servlet caching, Whodunit profiling.
func DefaultConfig(clients int) Config {
	return Config{
		Clients:        clients,
		Duration:       3 * whodunit.Minute,
		Mode:           whodunit.ModeWhodunit,
		ItemEngine:     minidb.EngineMyISAM,
		ServletCaching: false,
		Seed:           1,
		TomcatWorkers:  12,
		SquidWorkers:   4,
		DBWorkers:      6,
	}
}

// validate is the one place a Config is checked, so a bad one fails at
// build with a message instead of running to a silent zero.
func (cfg Config) validate() error {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"Clients", cfg.Clients}, {"TomcatWorkers", cfg.TomcatWorkers},
		{"SquidWorkers", cfg.SquidWorkers}, {"DBWorkers", cfg.DBWorkers},
	} {
		if c.n < 1 {
			return fmt.Errorf("tpcw: %s must be >= 1 (got %d)", c.name, c.n)
		}
	}
	if cfg.Replicas < 0 {
		return fmt.Errorf("tpcw: Replicas must be >= 0 (got %d)", cfg.Replicas)
	}
	return nil
}

// layout is everything the two deployments do differently (the package
// comment says why), resolved from Config here and nowhere else.
type layout struct {
	appName string
	app     []whodunit.Option // crosstalk or time-domain options of the App
	pods    int
	// name names pod r's stage or queue: bare, or suffixed -r.
	name func(tier string, r int) string
	// dbLast declares the mysql stage after the web tiers, not before.
	dbLast bool
	// hop is the pod <-> database pipe latency; 0 means a direct Put.
	hop whodunit.Duration
	// drain runs until the in-flight replies drain instead of stopping
	// the moment Duration is reached.
	drain bool
}

func (cfg Config) layout(classify func(whodunit.TxnCtxt) string) layout {
	if cfg.Replicas == 0 {
		return layout{
			appName: "tpcw",
			app:     []whodunit.Option{whodunit.WithCrosstalk(classify)},
			pods:    1,
			name:    func(tier string, _ int) string { return tier },
			dbLast:  true,
		}
	}
	domains := 1
	if cfg.Sharded {
		domains = cfg.Replicas + 1
	}
	return layout{
		appName: "tpcw-mega",
		app:     []whodunit.Option{whodunit.WithShards(domains)},
		pods:    cfg.Replicas,
		name:    func(tier string, r int) string { return fmt.Sprintf("%s-%d", tier, r) },
		hop:     hopLatency,
		drain:   true,
	}
}

// Result carries everything the §8.4/§9.1 experiments report, the
// per-pod counters merged in pod order.
type Result struct {
	Config Config

	// Report is the unified report App.Run assembled: per-stage
	// profiles, the crosstalk matrix and the stitched graph.
	Report *whodunit.Report
	// Crosstalk is the app's lock-wait monitor, nil in the replicated
	// layout.
	Crosstalk *whodunit.CrosstalkMonitor

	Elapsed          whodunit.Duration
	Completed        int64
	PerType          map[string]*TypeStats
	ThroughputPerMin float64

	// DBShare maps interaction -> fraction of MySQL CPU samples (Table 1
	// column 1). MeanCrosstalk maps interaction -> mean lock wait per
	// instance of that interaction (Table 1 column 2; empty without a
	// crosstalk monitor).
	DBShare       map[string]float64
	MeanCrosstalk map[string]whodunit.Duration

	// Bytes of application data vs context synopses shipped between tiers
	// (the §9.1 communication-overhead measurement).
	AppBytes, CtxtBytes int64

	Epochs whodunit.EpochStats     // what the epoch loop did; differs between Sharded and not, unlike all of the above
	Kernel whodunit.KernelCounters // what the simulator did; its queue and inline-sleep counts differ with the layout too
}

// TypeStats aggregates per-interaction client-side metrics.
type TypeStats struct {
	Count     int64
	TotalResp whodunit.Duration
}

// Mean returns the mean response time.
func (t *TypeStats) Mean() whodunit.Duration {
	if t.Count == 0 {
		return 0
	}
	return t.TotalResp / whodunit.Duration(t.Count)
}

// request is the in-sim message envelope between tiers. Exactly one
// envelope exists per client, allocated once and reused around the whole
// client → squid → tomcat → mysql → back round trip: each tier saves the
// upstream reply queue in a local, rewrites the envelope's fields for the
// next hop, and forwards the same pointer. Because every tier holds the
// envelope exclusively between its Get and its Put, the reuse is
// race-free by construction, and the steady-state request path allocates
// no envelopes at all (PR 4's remaining per-request allocation). The
// payload is a typed field rather than an `any` slot for the same
// reason: interface boxing of it allocated per hop.
type request struct {
	msg     whodunit.Msg
	q       query           // set by the client, read by tomcat and again by mysql
	replyQ  *whodunit.Queue // reply hop inside the pod (squid -> client, tomcat -> squid)
	dbReply func(any)       // mysql -> the issuing tomcat worker's reply queue (see system.connect)
}

// query is the payload: the interaction a client asks for, and what its
// servlet asks the database on its behalf. The interaction travels as its
// position in workload.Interactions, which is what every tier keeps its
// per-interaction state under (frames, caches, counters): a slice index,
// not a name to hash.
type query struct {
	kind    int
	subject int64
	itemID  int64
}

// interaction is the queried interaction's name.
func (q query) interaction() string { return workload.Interactions[q.kind] }

// wireBytes counts application data vs context synopses put on the wire
// (§9.1). Each pod and the database tier has its own, so the counters
// stay private to one time domain during the run.
type wireBytes struct{ app, ctxt int64 }

func (b *wireBytes) count(m whodunit.Msg, appBytes int64) {
	b.ctxt += int64(m.Chain.WireSize())
	b.app += appBytes
}

// Run executes the configured TPC-W system and collects the results.
func Run(cfg Config) *Result {
	return build(cfg).finish()
}

// system is the built-but-not-yet-run TPC-W model: every stage thread
// declared, tables loaded, clients installed. Run = build + finish.
type system struct {
	cfg     Config
	lay     layout
	app     *whodunit.App
	mysqlSt *whodunit.Stage
	mysqlQ  *whodunit.Queue
	db      *minidb.DB
	tables  tables
	dbBytes wireBytes
	pods    []*pod

	dispatchFrame whodunit.FrameID // mysql's dispatch_query
}

// pod is one web pod — a squid and a tomcat stage, their input queues,
// the servlet caches — and everything its threads count. All of it lives
// on the pod's time domain, so the hot-path state is domain-private; the
// pods are merged in pod order after the run.
type pod struct {
	squidSt, tomcatSt *whodunit.Stage
	squidQ, tomcatQ   *whodunit.Queue

	// chains is the chain -> interaction registry, filled when Tomcat
	// sends a DB request down a chain for the first time: how the
	// experiment code and the crosstalk classifier translate a MySQL-side
	// context back to an interaction.
	chains map[chainKey]string

	// Frames of the pod's two stages, interned once: squid's
	// forward_dynamic, tomcat's db_rpc and servlet_<interaction>. The
	// per-interaction slices here are indexed by query.kind.
	forwardFrame, rpcFrame whodunit.FrameID
	servletFrames          []whodunit.FrameID

	// caches is the servlet-side result cache (clause 6.3.3.1), each app
	// server's its own: cached interaction -> subject -> expiry. All nil
	// without ServletCaching.
	caches []map[int64]whodunit.Time

	bytes     wireBytes
	completed int64
	perType   []TypeStats
}

// podDomain is the time domain pod r is placed on; the database is on
// domain 0. The app folds the index onto the domains it has, so on one
// domain — Sharded off, or the single deployment — this is domain 0 too.
func podDomain(r int) int { return r + 1 }

// classify is the crosstalk classifier: the interaction whose servlet
// sent the chain a lock waiter or holder runs under.
func (sys *system) classify(tc whodunit.TxnCtxt) string {
	if n, ok := sys.interaction(tc); ok {
		return n
	}
	return "(other)"
}

func (sys *system) interaction(tc whodunit.TxnCtxt) (string, bool) {
	k := chainKeyOf(tc.Prefix)
	for _, p := range sys.pods {
		if n, ok := p.chains[k]; ok {
			return n, true
		}
	}
	return "", false
}

// connect returns the send half of a pod <-> database hop onto dst from
// time domain `from`: a direct Put, or a pipe of the layout's latency.
func (sys *system) connect(from int, dst *whodunit.Queue) func(any) {
	if sys.lay.hop == 0 {
		return dst.Put
	}
	return sys.app.Pipe(from, dst, sys.lay.hop).Send
}

// build validates cfg and wires its layout: the database tier, then each
// pod's tomcat workers, squid workers and clients.
func build(cfg Config) *system {
	return buildWith(cfg, (*mysqld).spawn, (*tomcat).spawn)
}

// buildWith is build with the way a wired mysqld or tomcat worker becomes
// a stage thread passed in. It exists for the differential oracle of
// ref_test.go, which starts the same wired workers as the blocking
// bodies they were before they became frame programs.
func buildWith(cfg Config, spawnDB func(*mysqld, string), spawnTomcat func(*tomcat, string)) *system {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	sys := &system{cfg: cfg}
	sys.lay = cfg.layout(sys.classify)
	lay := sys.lay
	app := whodunit.NewApp(lay.appName, append([]whodunit.Option{whodunit.WithMode(cfg.Mode)}, lay.app...)...)
	sys.app = app

	declareDB := func() { sys.mysqlSt = app.Stage("mysql", whodunit.StageCPU(1)) }
	if !lay.dbLast {
		declareDB()
	}
	sys.pods = make([]*pod, lay.pods)
	for r := range sys.pods {
		d := podDomain(r)
		p := &pod{
			squidSt:  app.Stage(lay.name("squid", r), whodunit.StageCPU(1), whodunit.StageShard(d)),
			tomcatSt: app.Stage(lay.name("tomcat", r), whodunit.StageCPU(2), whodunit.StageShard(d)),
			squidQ:   app.NewQueueOn(d, lay.name("squid-in", r)),
			tomcatQ:  app.NewQueueOn(d, lay.name("tomcat-in", r)),
			chains:   make(map[chainKey]string),
			caches:   make([]map[int64]whodunit.Time, len(workload.Interactions)),
			perType:  make([]TypeStats, len(workload.Interactions)),
		}
		p.forwardFrame = p.squidSt.Profiler().Frames().ID("forward_dynamic")
		frames := p.tomcatSt.Profiler().Frames()
		p.rpcFrame = frames.ID("db_rpc")
		for kind, name := range workload.Interactions {
			p.servletFrames = append(p.servletFrames, frames.ID("servlet_"+name))
			if cfg.ServletCaching && (name == workload.BestSellers || name == workload.SearchResult) {
				p.caches[kind] = map[int64]whodunit.Time{}
			}
		}
		sys.pods[r] = p
	}
	if lay.dbLast {
		declareDB()
	}

	// MySQL tier, on domain 0: schema, data, and workers executing
	// queries.
	sys.db = minidb.New(app.Sim(), "mysql", sys.mysqlSt.CPU())
	if mon := app.Crosstalk(); mon != nil {
		sys.db.SetLockObserver(mon)
	}
	sys.tables = loadTables(sys.db, cfg.ItemEngine, cfg.Seed)
	sys.mysqlQ = app.NewQueueOn(0, "mysql-in")
	sys.dispatchFrame = sys.mysqlSt.Profiler().Frames().ID("dispatch_query")
	for w := 0; w < cfg.DBWorkers; w++ {
		spawnDB(&mysqld{sys: sys, ep: sys.mysqlSt.Endpoint()}, fmt.Sprintf("mysqld-%d", w))
	}

	for r, p := range sys.pods {
		sys.startPod(r, p, spawnTomcat)
	}
	return sys
}

// startPod starts pod r's threads: tomcat workers, squid workers, then
// the pod's share of the clients.
func (sys *system) startPod(r int, p *pod, spawnTomcat func(*tomcat, string)) {
	cfg, app := sys.cfg, sys.app
	d := podDomain(r)

	// The pod's one request link into the shared database.
	toDB := sys.connect(d, sys.mysqlQ)

	// Tomcat tier: servlets.
	for w := 0; w < cfg.TomcatWorkers; w++ {
		// The worker's reply queue and its return link from the database,
		// declared before the run starts (cross-domain links must exist
		// before the epoch loop arms).
		replyQ := app.NewQueueOn(d, fmt.Sprintf("%s-%d-reply", sys.lay.name("tomcat", r), w))
		spawnTomcat(&tomcat{
			sys: sys, pod: p, ep: p.tomcatSt.Endpoint(),
			replyQ: replyQ, toDB: toDB, fromDB: sys.connect(0, replyQ),
		}, fmt.Sprintf("tomcat-%d", w))
	}

	// Squid front tier: pass-through for dynamic content. Like every
	// worker here it is a run-to-completion program: the hot path —
	// dequeue, forward to Tomcat, await the response, reply upstream —
	// runs as direct continuation calls on the domain's dispatcher, with
	// CPU demand charged through Probe.ComputeStep.
	squidEP := p.squidSt.Endpoint()
	for w := 0; w < cfg.SquidWorkers; w++ {
		name := fmt.Sprintf("squid-%d", w)
		sw := &squid{pod: p, ep: squidEP, replyQ: app.NewQueueOn(d, name+"-reply")}
		sw.recvF, sw.fwdF, sw.respF, sw.doneF = sw.recv, sw.fwd, sw.resp, sw.done
		p.squidSt.GoCoro(name, sw.begin)
	}

	// Clients: closed loop with think times; c % pods is the load
	// balancer, and the global index c keeps the RNG streams
	// layout-independent. The clients are the load generator, not part of
	// the profiled application, so they run as raw simulator threads
	// outside any stage (and carry no probes) — and as run-to-completion
	// coroutines, which is what makes a 10^5-client closed loop
	// affordable: a client costs one small struct rather than a goroutine
	// stack, and each of its blocking operations a continuation call
	// rather than a thread switch.
	think := cfg.ThinkMean
	if think == 0 {
		think = 7 * whodunit.Second
	}
	mixWeights := cfg.Mix
	if mixWeights == nil {
		mixWeights = workload.BrowsingMix
	}
	for c := r; c < cfg.Clients; c += len(sys.pods) {
		mix := workload.NewMixSampler(cfg.Seed+uint64(c)*7919, mixWeights)
		mix.SetThinkMean(think)
		name := fmt.Sprintf("client-%d", c)
		// The client's one envelope, reused for every request (see
		// request): it comes back on replyQ at the end of each round
		// trip, so reusing it never races with a tier.
		cl := &client{
			pod: p, replyQ: app.NewQueueOn(d, name+"-reply"), env: &request{},
			mix: mix, crng: vclock.NewRNG(cfg.Seed + uint64(c)*104729),
			end: whodunit.Time(cfg.Duration), think: think,
		}
		// Continuations are bound once here, so the steady-state loop
		// allocates nothing.
		cl.issueF, cl.replyF = cl.issue, cl.reply
		app.GoCoroShard(d, name, cl.begin)
	}
}

// squid is one Squid front-tier worker as a run-to-completion state
// machine: recv (dequeue a request, open the forward_dynamic frame,
// charge the forward cost) → fwd (send to Tomcat, await its reply) →
// resp (charge the response cost) → done (close the frame, reply
// upstream, go back to the input queue). The probe frame opened in recv
// stays open across the Tomcat round trip, like a deferred Exit would.
type squid struct {
	pod    *pod
	ep     *whodunit.Endpoint
	pr     *whodunit.Probe
	replyQ *whodunit.Queue

	req      *request
	upstream *whodunit.Queue
	tok      int // forward_dynamic frame token

	recvF, fwdF, respF, doneF whodunit.Frame
}

func (sw *squid) begin(_ *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
	sw.pr = pr
	return sw.idle
}

func (sw *squid) idle(c *whodunit.Coro, _ any) whodunit.Step {
	return c.Get(sw.pod.squidQ.Raw(), sw.recvF)
}

func (sw *squid) recv(c *whodunit.Coro, v any) whodunit.Step {
	sw.req = sw.pod.squidQ.Check(v).(*request)
	sw.ep.Recv(sw.pr, sw.req.msg)
	sw.upstream = sw.req.replyQ
	sw.tok = sw.pr.EnterID(sw.pod.forwardFrame)
	return sw.pr.ComputeStep(c, 300*whodunit.Microsecond, sw.fwdF)
}

func (sw *squid) fwd(c *whodunit.Coro, _ any) whodunit.Step {
	sw.req.msg = sw.ep.Send(sw.pr, nil)
	sw.pod.bytes.count(sw.req.msg, 512)
	sw.req.replyQ = sw.replyQ
	sw.pod.tomcatQ.Put(sw.req)
	return c.Get(sw.replyQ.Raw(), sw.respF)
}

func (sw *squid) resp(c *whodunit.Coro, v any) whodunit.Step {
	resp := sw.replyQ.Check(v).(*request)
	sw.ep.Recv(sw.pr, resp.msg)
	return sw.pr.ComputeStep(c, 200*whodunit.Microsecond, sw.doneF)
}

func (sw *squid) done(c *whodunit.Coro, _ any) whodunit.Step {
	sw.pr.Exit(sw.tok)
	sw.req.msg = sw.ep.Send(sw.pr, nil)
	sw.pod.bytes.count(sw.req.msg, 8192)
	sw.req.replyQ = nil
	sw.upstream.Put(sw.req)
	return c.Get(sw.pod.squidQ.Raw(), sw.recvF)
}

// tomcat is one servlet-container worker as a run-to-completion state
// machine: recv (dequeue a request, open the servlet_<interaction> frame,
// charge servlet and page generation) → servlet (on a cache miss: open
// db_rpc, send the query to the database, await its reply) → reply
// (close db_rpc, fill the cache) → render (charge response rendering) →
// done (close the servlet frame, reply upstream, back to the input
// queue). Both frames stay open across the steps between their Enter and
// Exit, like deferred Exits would hold them. The wiring fields are set
// by startPod; everything else belongs to the request in service.
type tomcat struct {
	sys          *system
	pod          *pod
	ep           *whodunit.Endpoint
	replyQ       *whodunit.Queue // the worker's own: where the database answers
	toDB, fromDB func(any)       // the pod's link to mysql-in, and mysql's back to replyQ

	pr       *whodunit.Probe
	req      *request
	q        query // copied out of req: the envelope is the database's while the query is there
	upstream *whodunit.Queue
	cache    map[int64]whodunit.Time // the interaction's result cache; nil: not a cached one
	tok, rpc int                     // servlet_<interaction> and db_rpc frame tokens

	recvF, servletF, replyF, doneF whodunit.Frame
}

func (tc *tomcat) spawn(name string) {
	tc.recvF, tc.servletF, tc.replyF, tc.doneF = tc.recv, tc.servlet, tc.reply, tc.done
	tc.pod.tomcatSt.GoCoro(name, tc.begin)
}

// begin runs at thread start, and again on a fresh thread and probe when
// the crashed stage restarts: the respawn inherits nothing from the
// request its predecessor was killed in.
func (tc *tomcat) begin(_ *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
	tc.pr = pr
	tc.req, tc.upstream, tc.cache = nil, nil, nil
	return tc.idle
}

func (tc *tomcat) idle(c *whodunit.Coro, _ any) whodunit.Step {
	return c.Get(tc.pod.tomcatQ.Raw(), tc.recvF)
}

func (tc *tomcat) recv(c *whodunit.Coro, v any) whodunit.Step {
	tc.req = tc.pod.tomcatQ.Check(v).(*request)
	tc.ep.Recv(tc.pr, tc.req.msg)
	tc.q, tc.upstream = tc.req.q, tc.req.replyQ
	tc.tok = tc.pr.EnterID(tc.pod.servletFrames[tc.q.kind])
	return tc.pr.ComputeNStep(c, 2*whodunit.Millisecond, 400, tc.servletF) // servlet + page generation
}

func (tc *tomcat) servlet(c *whodunit.Coro, _ any) whodunit.Step {
	req, p := tc.req, tc.pod
	if tc.cache = p.caches[tc.q.kind]; tc.cache != nil {
		if until, ok := tc.cache[tc.q.subject]; ok && c.Now() < until {
			return tc.render(c)
		}
	}
	tc.rpc = tc.pr.EnterID(p.rpcFrame)
	known := tc.ep.Distinct()
	req.msg = tc.ep.Send(tc.pr, nil)
	if tc.ep.Distinct() != known { // a chain not sent before: one interaction's, for good
		p.chains[chainKeyOf(req.msg.Chain)] = tc.q.interaction()
	}
	p.bytes.count(req.msg, 512)
	req.dbReply = tc.fromDB
	tc.toDB(req)
	return c.Get(tc.replyQ.Raw(), tc.replyF)
}

func (tc *tomcat) reply(c *whodunit.Coro, v any) whodunit.Step {
	resp := tc.replyQ.Check(v).(*request)
	tc.ep.Recv(tc.pr, resp.msg)
	tc.pr.Exit(tc.rpc)
	if tc.cache != nil {
		tc.cache[tc.q.subject] = c.Now().Add(30 * whodunit.Second)
	}
	return tc.render(c)
}

func (tc *tomcat) render(c *whodunit.Coro) whodunit.Step {
	return tc.pr.ComputeNStep(c, whodunit.Millisecond, 200, tc.doneF) // response rendering
}

func (tc *tomcat) done(c *whodunit.Coro, _ any) whodunit.Step {
	tc.pr.Exit(tc.tok)
	tc.req.msg = tc.ep.Send(tc.pr, nil)
	tc.pod.bytes.count(tc.req.msg, 8192)
	tc.req.replyQ = nil
	tc.upstream.Put(tc.req)
	return c.Get(tc.pod.tomcatQ.Raw(), tc.recvF)
}

// mysqld is one database worker as a run-to-completion state machine:
// recv (dequeue a query, open dispatch_query) → next (issue the
// interaction's statement i to the worker's minidb.Exec, which steps it
// through its lock and CPU needs and continues at next again) → ... →
// done (close the frame, reply to the issuing tomcat worker through the
// envelope's dbReply, back to the input queue). No statement list is
// stored: next is the interaction's program, indexed by i.
type mysqld struct {
	sys *system
	ep  *whodunit.Endpoint

	pr  *whodunit.Probe
	x   *minidb.Exec // executes one statement at a time on pr
	req *request
	q   query // copied out of req, as in tomcat
	tok int   // dispatch_query frame token
	i   int   // next statement of q's interaction

	recvF, nextF whodunit.Frame
}

func (m *mysqld) spawn(name string) {
	m.recvF, m.nextF = m.recv, m.next
	m.sys.mysqlSt.GoCoro(name, m.begin)
}

// begin runs at thread start and again, with a fresh thread and probe,
// at every respawn: nothing of the request the predecessor died in
// survives, its executor included.
func (m *mysqld) begin(_ *whodunit.Thread, pr *whodunit.Probe) whodunit.Frame {
	m.pr, m.x, m.req = pr, m.sys.db.NewExec(pr), nil
	return m.start
}

// start registers the thread's one cleanup — a frame program has no
// deferred unlock, so a worker killed inside a statement would otherwise
// keep its table or row lock forever and wedge every later reader — and
// waits for the first query.
func (m *mysqld) start(c *whodunit.Coro, _ any) whodunit.Step {
	c.Defer(m.x.Abort)
	return c.Get(m.sys.mysqlQ.Raw(), m.recvF)
}

func (m *mysqld) recv(c *whodunit.Coro, v any) whodunit.Step {
	m.req = m.sys.mysqlQ.Check(v).(*request)
	m.ep.Recv(m.pr, m.req.msg)
	m.q, m.i = m.req.q, 0
	m.tok = m.pr.EnterID(m.sys.dispatchFrame)
	return m.next(c, nil)
}

// next performs the per-interaction database work, one statement per
// visit. Row volumes are calibrated so the browsing mix reproduces Table
// 1's CPU split (heavy BestSellers/SearchResult, heavyweight-but-rare
// AdminConfirm).
func (m *mysqld) next(c *whodunit.Coro, _ any) whodunit.Step {
	q, x, t, k := &m.q, m.x, &m.sys.tables, m.nextF
	i := int64(m.i)
	m.i++
	switch q.interaction() {
	case workload.BestSellers:
		// Scan recent order lines, aggregate+sort into a temp table (held
		// under the order_line read lock), then join the top items. The
		// servlet only wants the query's cost and contention, so the
		// result set is not materialised (CountOnly).
		switch {
		case i == 0:
			return x.Select(c, t.orderLine, nil, minidb.SelectOpts{TempSortRows: 38000, CountOnly: true}, k)
		case i <= 50:
			return x.Lookup(c, t.item, (q.itemID+(i-1)*13)%10000, k)
		}
	case workload.SearchResult:
		// Subject search over the item table with a sorted temp table,
		// all under the item read lock (this is what AdminConfirm's
		// exclusive table lock collides with on MyISAM).
		if i == 0 {
			return x.Select(c, t.item, nil, minidb.SelectOpts{WhereAttr: "subject", WhereEquals: q.subject,
				SortBy: "sales", Limit: 50, TempSortRows: 28000, CountOnly: true}, k)
		}
	case workload.AdminConfirm:
		// Heavy-weight: sort order lines into a temp table, then update
		// one row of item — exclusive table lock under MyISAM.
		switch i {
		case 0:
			return x.Select(c, t.orderLine, nil, minidb.SelectOpts{TempSortRows: 50000, CountOnly: true}, k)
		case 1:
			return x.Update(c, t.item, q.itemID, raiseCost, k)
		}
	case workload.NewProducts:
		if i == 0 {
			return x.Select(c, t.item, nil, minidb.SelectOpts{WhereAttr: "subject", WhereEquals: q.subject,
				SortBy: "sales", Limit: 50, CountOnly: true}, k)
		}
	case workload.Home:
		switch {
		case i == 0:
			return x.Lookup(c, t.customer, q.itemID%2880, k)
		case i <= 5:
			return x.Lookup(c, t.item, (q.itemID+i-1)%10000, k)
		case i == 6:
			return x.TempSort(c, 300, k)
		}
	case workload.ProductDetail, workload.SearchRequest, workload.AdminRequest:
		switch i {
		case 0:
			return x.Lookup(c, t.item, q.itemID, k)
		case 1:
			return x.Lookup(c, t.author, q.itemID%2500, k)
		}
	case workload.ShoppingCart:
		if i < 3 {
			return x.Lookup(c, t.item, (q.itemID+i)%10000, k)
		}
	case workload.BuyRequest:
		switch i {
		case 0:
			return x.Lookup(c, t.customer, q.itemID%2880, k)
		case 1:
			return x.Lookup(c, t.item, q.itemID, k)
		}
	case workload.BuyConfirm:
		// Writes order rows: the order_line insert takes that table's
		// exclusive lock and collides with BestSellers' long reads.
		id := q.itemID*100000 + int64(m.pr.Thread().ID)
		switch i {
		case 0:
			return x.Lookup(c, t.customer, q.itemID%2880, k)
		case 1:
			return x.Insert(c, t.orders, minidb.Row{ID: id}, k)
		case 2:
			return x.Insert(c, t.orderLine, minidb.Row{ID: id + 50000,
				Attrs: []minidb.Attr{{Name: "item", Val: q.itemID}, {Name: "qty", Val: 1}}}, k)
		}
	case workload.OrderDisplay, workload.OrderInquiry:
		switch i {
		case 0:
			return x.Lookup(c, t.customer, q.itemID%2880, k)
		case 1:
			return x.Lookup(c, t.orders, q.itemID, k)
		}
	case workload.CustomerRegistration:
		if i == 0 {
			return x.Lookup(c, t.customer, q.itemID%2880, k)
		}
	default:
		if i == 0 {
			return x.Lookup(c, t.item, q.itemID, k)
		}
	}
	return m.done(c)
}

// raiseCost is AdminConfirm's update of its item row.
func raiseCost(r *minidb.Row) { r.AddAttr("cost", 1) }

// done replies on the incoming envelope, whose dbReply names the issuing
// tomcat worker.
func (m *mysqld) done(c *whodunit.Coro) whodunit.Step {
	m.pr.Exit(m.tok)
	m.req.msg = m.ep.Send(m.pr, nil)
	m.sys.dbBytes.count(m.req.msg, 256)
	m.req.dbReply(m.req)
	return c.Get(m.sys.mysqlQ.Raw(), m.recvF)
}

// client is the run-to-completion state machine of one closed-loop
// client: begin (desynchronise) → issue (draw an interaction, put the
// envelope to Squid, await the reply) → reply (account the round trip,
// think) → issue → ... Every mutable is a field; the frame continuations
// are bound once at construction.
type client struct {
	pod    *pod
	replyQ *whodunit.Queue
	env    *request
	mix    *workload.MixSampler
	crng   *whodunit.RNG
	end    whodunit.Time
	think  whodunit.Duration

	kind  int           // interaction in flight
	start whodunit.Time // round-trip start

	issueF, replyF whodunit.Frame
}

func (cl *client) begin(c *whodunit.Coro, _ any) whodunit.Step {
	// Desynchronised start.
	return c.Sleep(whodunit.Duration(cl.crng.Intn(int(cl.think))), cl.issueF)
}

func (cl *client) issue(c *whodunit.Coro, _ any) whodunit.Step {
	if c.Now() >= cl.end {
		return c.End()
	}
	cl.kind = cl.mix.NextIndex()
	cl.env.msg = whodunit.Msg{}
	cl.env.q = query{
		kind:    cl.kind,
		subject: int64(cl.crng.Intn(24)),
		itemID:  int64(cl.crng.Intn(10000)),
	}
	cl.env.replyQ = cl.replyQ
	cl.start = c.Now()
	cl.pod.squidQ.Put(cl.env)
	return c.Get(cl.replyQ.Raw(), cl.replyF)
}

func (cl *client) reply(c *whodunit.Coro, v any) whodunit.Step {
	cl.replyQ.Check(v)
	if c.Now() >= cl.end {
		return c.End()
	}
	st := &cl.pod.perType[cl.kind]
	st.Count++
	st.TotalResp += c.Now().Sub(cl.start)
	cl.pod.completed++
	return c.Sleep(cl.mix.ThinkTime(), cl.issueF)
}

// finish drives the built system to its layout's end — Duration, or the
// last in-flight reply once the clients stop issuing at Duration and
// the stage workers park on empty queues — shuts it down, merges the
// pods and computes the result metrics.
func (sys *system) finish() *Result {
	var stop func() bool // nil: drain
	if !sys.lay.drain {
		s, end := sys.app.Sim(), whodunit.Time(sys.cfg.Duration)
		stop = func() bool { return s.Now() >= end }
	}
	rep := sys.app.RunUntil(stop)

	res := &Result{
		Config:        sys.cfg,
		Report:        rep,
		Crosstalk:     sys.app.Crosstalk(),
		Elapsed:       rep.Elapsed,
		PerType:       make(map[string]*TypeStats),
		DBShare:       make(map[string]float64),
		MeanCrosstalk: make(map[string]whodunit.Duration),
		AppBytes:      sys.dbBytes.app,
		CtxtBytes:     sys.dbBytes.ctxt,
		Epochs:        sys.app.EpochStats(),
		Kernel:        sys.app.KernelCounters(),
	}
	for _, name := range workload.Interactions {
		res.PerType[name] = &TypeStats{}
	}
	for _, p := range sys.pods {
		res.Completed += p.completed
		res.AppBytes += p.bytes.app
		res.CtxtBytes += p.bytes.ctxt
		for kind, st := range p.perType {
			total := res.PerType[workload.Interactions[kind]]
			total.Count += st.Count
			total.TotalResp += st.TotalResp
		}
	}
	if res.Elapsed > 0 {
		res.ThroughputPerMin = float64(res.Completed) / res.Elapsed.Seconds() * 60
	}

	// Table 1 column 1: MySQL CPU share per interaction, from the
	// database profiler's per-context trees resolved via the chain
	// registries.
	mysql := sys.mysqlSt.Profiler()
	if total := mysql.TotalSamples(); total > 0 {
		for _, e := range mysql.Entries() {
			if name, ok := sys.interaction(e.Ctxt); ok {
				res.DBShare[name] += float64(e.Tree.Total()) / float64(total)
			}
		}
	}
	// Table 1 column 2: mean crosstalk wait per interaction instance.
	if res.Crosstalk != nil {
		for _, name := range workload.Interactions {
			totalWait, _ := res.Crosstalk.WaitTotal(name)
			if n := res.PerType[name].Count; n > 0 {
				res.MeanCrosstalk[name] = totalWait / whodunit.Duration(n)
			}
		}
	}
	return res
}

// tables is the TPC-W schema's tables the interactions touch.
type tables struct {
	item, orderLine, customer, orders, author *minidb.Table
}

// loadTables creates and populates the TPC-W schema on db. Each table's
// attributes come from one array, k per row; a row's window is capped
// at its k so that adding an attribute to it copies instead of writing
// into the next row (see minidb.Table.LoadRow). Each table is loaded in
// one LoadRows, which sizes its row array once; LoadRows copies the
// rows, so one buffer, as long as the largest table, serves them all.
func loadTables(db *minidb.DB, itemEngine minidb.Engine, seed uint64) tables {
	rng := vclock.NewRNG(seed ^ 0x5eed)
	rows := make([]minidb.Row, 10000)
	item := db.CreateTable("item", itemEngine)
	a := make([]minidb.Attr, 3*10000)
	for i := range rows {
		w := a[3*i : 3*i+3 : 3*i+3]
		w[0] = minidb.Attr{Name: "subject", Val: int64(i % 24)}
		w[1] = minidb.Attr{Name: "cost", Val: int64(10 + i%90)}
		w[2] = minidb.Attr{Name: "sales", Val: int64(rng.Intn(100000))}
		rows[i] = minidb.Row{ID: int64(i), Attrs: w}
	}
	item.LoadRows(rows)
	orderLine := db.CreateTable("order_line", minidb.EngineMyISAM)
	rows = rows[:7776]
	a = make([]minidb.Attr, 2*len(rows))
	for i := range rows {
		w := a[2*i : 2*i+2 : 2*i+2]
		w[0] = minidb.Attr{Name: "item", Val: int64(rng.Intn(10000))}
		w[1] = minidb.Attr{Name: "qty", Val: int64(1 + rng.Intn(5))}
		rows[i] = minidb.Row{ID: int64(i), Attrs: w}
	}
	orderLine.LoadRows(rows)
	customer := db.CreateTable("customer", minidb.EngineMyISAM)
	rows = rows[:2880]
	a = make([]minidb.Attr, len(rows))
	for i := range rows {
		a[i] = minidb.Attr{Name: "discount", Val: int64(i % 50)}
		rows[i] = minidb.Row{ID: int64(i), Attrs: a[i : i+1 : i+1]}
	}
	customer.LoadRows(rows)
	orders := db.CreateTable("orders", minidb.EngineInnoDB)
	author := db.CreateTable("author", minidb.EngineMyISAM)
	rows = rows[:2500]
	for i := range rows {
		rows[i] = minidb.Row{ID: int64(i)}
	}
	author.LoadRows(rows)
	return tables{item: item, orderLine: orderLine, customer: customer, orders: orders, author: author}
}
