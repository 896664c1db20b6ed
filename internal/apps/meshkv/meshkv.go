// Package meshkv is the microservice-mesh app model: a modern
// frontend → rpc-proxy → sharded KV/cache → DB topology wired from the
// internal/mesh layer and driven by internal/trace request traces. It
// exercises flow propagation across far more hops than the 2007-era
// paper models — the deep variant stitches ≥6-hop transaction chains —
// and gives the bench suite a heavy-traffic workload with realistic
// Zipfian skew.
//
// Standard pipeline (Config.Deep false):
//
//	frontend → rpc-proxy(streaming) → kv-0..N (consistent-hash ring) → db
//
// Deep pipeline (Config.Deep true) interposes buffering proxy hops:
//
//	frontend → edge-proxy(full-buffering) → rpc-proxy(streaming)
//	         → cache-proxy(streaming+buffering) → kv-0..N
//	         → db-proxy(streaming) → db
//
// The kv tier is a write-through cache: a get probes the shard's cache
// and on a miss invokes the db ("fill") and installs the value; a set
// stores locally and writes through ("store"). Every request completes
// back at its frontend.
//
// One model, two layouts, selected by Config.Replicas. At 0 there is
// one pipeline on the app's shared sharedCores-wide CPU, fed directly
// by the trace replay. At R ≥ 1 there are R self-contained pods — each
// the whole pipeline, with private per-stage CPUs — and the replay
// routes each request to its key's home pod (so the caches stay
// pod-coherent) over a mesh.Ingress hop of hopLatency; with Sharded,
// pod r runs on time domain r+1, without it the same program runs on
// one domain and reports the same bytes. The tier handlers exist once.
// What differs is exactly what Config.layout returns: stage names (bare,
// or suffixed with the pod index) and their CPU and time-domain
// placement, because both layouts' reports are pinned byte for byte;
// and direct injection or the ingress hop, because time domains may
// only talk through a latency-bearing pipe. Every layout recycles its envelopes: a request
// completes on its pod's domain and goes back on the injector's free
// list, which is safe because a vclock.Group runs all its domains on
// the goroutine that called RunUntil (internal/vclock/domain.go:16).
package meshkv

import (
	"fmt"

	"whodunit"
	"whodunit/internal/mesh"
	"whodunit/internal/trace"
)

// Config parameterises a mesh-KV run.
type Config struct {
	Name string // app name in the report
	Mode whodunit.Mode
	Seed uint64

	// Replicas selects the layout: 0 is the single pipeline, R ≥ 1 is R
	// pods fed through ingress hops (see the package comment). Sharded
	// puts pod r on time domain r+1; it means nothing at Replicas 0.
	Replicas int
	Sharded  bool

	Shards int // kv/cache shards on each pipeline's consistent-hash ring
	Deep   bool

	// Trace drives Run; Serve ignores it and generates on the fly.
	Trace *trace.Trace
}

// The deployment's fixed shape: calibration constants of the model,
// like the CPU costs further down.
const (
	// sharedCores sizes the single pipeline's shared CPU; pods have
	// private per-stage CPUs instead.
	sharedCores = 4
	// hopLatency is the replicated layout's client → pod network
	// latency, and so the epoch width of a sharded run.
	hopLatency = whodunit.Millisecond
	vnodes     = 16 // ring virtual nodes per shard
	// Worker counts, per pipeline (shardWorkers per kv shard).
	frontendWorkers = 4
	proxyWorkers    = 2
	shardWorkers    = 2
	dbWorkers       = 2
)

// DefaultConfig is the 4-shard scenario scale.
func DefaultConfig(tr *trace.Trace) Config {
	return Config{
		Name:   "meshkv",
		Mode:   whodunit.ModeWhodunit,
		Seed:   1,
		Shards: 4,
		Trace:  tr,
	}
}

// validate is the one place a Config is checked, so a bad one fails at
// build with a message instead of deep inside the run.
func (cfg Config) validate() error {
	if cfg.Shards < 1 {
		return fmt.Errorf("meshkv: Shards must be >= 1 (got %d)", cfg.Shards)
	}
	if cfg.Replicas < 0 {
		return fmt.Errorf("meshkv: Replicas must be >= 0 (got %d)", cfg.Replicas)
	}
	return nil
}

// layout is everything the two deployments do differently (the package
// comment says why), resolved from Config here and nowhere else.
type layout struct {
	pods int
	app  []whodunit.Option // CPU or time-domain options of the App
	// stage names pod r's tier and places it: the bare name on the
	// shared CPU, or name-r on a private CPU on the pod's time domain.
	stage func(r int, tier string, cores int) (string, []whodunit.StageOption)
	// hop is the ingress latency into a pod; 0 means the replay puts
	// requests straight into the frontend.
	hop whodunit.Duration
}

func (cfg Config) layout() layout {
	if cfg.Replicas == 0 {
		return layout{
			pods: 1,
			app:  []whodunit.Option{whodunit.WithCores(sharedCores)},
			stage: func(_ int, tier string, _ int) (string, []whodunit.StageOption) {
				return tier, nil
			},
		}
	}
	domains := 1
	if cfg.Sharded {
		domains = cfg.Replicas + 1
	}
	return layout{
		pods: cfg.Replicas,
		app:  []whodunit.Option{whodunit.WithShards(domains)},
		stage: func(r int, tier string, cores int) (string, []whodunit.StageOption) {
			return fmt.Sprintf("%s-%d", tier, r),
				[]whodunit.StageOption{whodunit.StageCPU(cores), whodunit.StageShard(r + 1)}
		},
		hop: hopLatency,
	}
}

// OpStats aggregates one op family's completions.
type OpStats struct {
	Count        int64
	TotalLatency whodunit.Duration
}

// MeanLatency is the mean injection-to-completion round trip.
func (o OpStats) MeanLatency() whodunit.Duration {
	if o.Count == 0 {
		return 0
	}
	return o.TotalLatency / whodunit.Duration(o.Count)
}

func (o *OpStats) add(p OpStats) {
	o.Count += p.Count
	o.TotalLatency += p.TotalLatency
}

// Result is the outcome of a finite replay run, the per-pod counters
// merged in pod order.
type Result struct {
	Config        Config
	Report        *whodunit.Report
	Elapsed       whodunit.Duration
	Injected      int64
	Completed     int64
	Hits          int64
	Misses        int64
	Gets          OpStats
	Sets          OpStats
	ShardLoad     []int64 // requests served per kv shard, pod by pod
	ReplicaLoad   []int64 // requests completed per pod
	ThroughputRPS float64
	Epochs        whodunit.EpochStats     // what the epoch loop did; differs between Sharded and not, unlike all of the above
	Kernel        whodunit.KernelCounters // what the simulator did; its queue and inline-sleep counts differ with the layout too
}

// HitRate is the cache hit fraction across all gets.
func (r *Result) HitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// CPU cost model: hand-picked constants in the spirit of the paper
// models, byte costs rounded up per KB so all charges stay integral.
const (
	parseCost   = 180 * whodunit.Microsecond // frontend parse + route
	respondCost = 90 * whodunit.Microsecond  // frontend response serialization
	probeCost   = 110 * whodunit.Microsecond // shard index probe
	hitReadCost = 40 * whodunit.Microsecond  // cache read, plus per-KB
	installCost = 70 * whodunit.Microsecond  // fill install into the cache
	storeCost   = 120 * whodunit.Microsecond // cache store
	dbReadCost  = 1400 * whodunit.Microsecond
	dbWriteCost = 2100 * whodunit.Microsecond
	perKBCost   = 2 * whodunit.Microsecond
)

func kb(n int64) whodunit.Duration {
	if n <= 0 {
		return 0
	}
	return perKBCost * whodunit.Duration((n+1023)/1024)
}

// vsize is the canonical value size of a key that was never explicitly
// set — a pure function of the key, so fills are deterministic.
func vsize(key string) int64 {
	return 256 + int64(mesh.KeyHash(key)%3840)
}

// pod is one pipeline and its counters. All of a pod's tiers run on the
// pod's time domain, so the counters are domain-private during the run
// and the handlers update them unlocked.
type pod struct {
	kvs    []*mesh.Service
	inject func(*mesh.Request)

	completed int64
	hits      int64
	misses    int64
	gets      OpStats
	sets      OpStats
}

// system is the wired mesh plus the injector's state.
type system struct {
	cfg  Config
	app  *whodunit.App
	pods []*pod

	injected int64
	free     []*mesh.Request
}

// build validates cfg and wires its layout's pods.
func build(cfg Config) *system {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	lay := cfg.layout()
	app := whodunit.NewApp(cfg.Name, append([]whodunit.Option{
		whodunit.WithMode(cfg.Mode), whodunit.WithSeed(cfg.Seed)}, lay.app...)...)
	sys := &system{cfg: cfg, app: app, pods: make([]*pod, lay.pods)}
	topo := mesh.New(app)
	for r := range sys.pods {
		sys.pods[r] = sys.buildPod(topo, lay, r)
	}
	return sys
}

// buildPod wires pipeline r: db, kv ring, proxies and frontend, in that
// declaration order.
func (sys *system) buildPod(topo *mesh.Topology, lay layout, r int) *pod {
	cfg := sys.cfg
	p := &pod{kvs: make([]*mesh.Service, cfg.Shards)}
	service := func(tier string, cores, workers int, h mesh.Handler) *mesh.Service {
		name, place := lay.stage(r, tier, cores)
		return topo.Service(name, workers, h, place...)
	}
	proxy := func(tier string, mode mesh.Mode, route mesh.Router) *mesh.Service {
		name, place := lay.stage(r, tier, 1)
		return topo.Proxy(name, mode, proxyWorkers, route, place...)
	}

	// Handlers are chains of segments bound once here (see mesh.Handler):
	// a segment's one blocking call takes effect when it returns, and
	// Then names where the request continues.
	db := service("db", 2, dbWorkers, func(c *mesh.Call) {
		req := c.Req()
		switch req.Op {
		case "fill": // read the canonical value for a cache miss
			c.Compute(dbReadCost + kb(vsize(req.Key)))
			req.RespSize = vsize(req.Key)
		case "store": // write-through of a set
			c.Compute(dbWriteCost + kb(req.Size))
			req.RespSize = 64
		}
	})
	if cfg.Deep {
		db = proxy("db-proxy", mesh.Streaming, mesh.To(db))
	}

	kvName, kvPlace := lay.stage(r, "kv", 1)
	for i := range p.kvs {
		p.kvs[i] = topo.Service(fmt.Sprintf("%s-%d", kvName, i), shardWorkers,
			p.kvHandler(db, shardWorkers), kvPlace...)
	}

	var ring mesh.Router = mesh.NewRing(vnodes, p.kvs...)
	if cfg.Deep {
		ring = mesh.To(proxy("cache-proxy", mesh.StreamingWithBuffering, ring))
	}
	next := proxy("rpc-proxy", mesh.Streaming, ring)
	if cfg.Deep {
		next = proxy("edge-proxy", mesh.FullBuffering, mesh.To(next))
	}

	respond := func(c *mesh.Call) { c.Compute(respondCost + kb(c.Req().RespSize)) }
	call := func(c *mesh.Call) {
		c.Invoke(next)
		c.Then(respond)
	}
	front := service("frontend", 2, frontendWorkers, func(c *mesh.Call) {
		c.Compute(parseCost + kb(c.Req().Size))
		c.Then(call)
	})
	front.OnComplete = func(req *mesh.Request, now whodunit.Time) {
		p.completed++
		st := &p.gets
		if req.Op == "set" {
			st = &p.sets
		}
		st.Count++
		st.TotalLatency += now.Sub(req.Start)
		sys.free = append(sys.free, req)
	}
	p.inject = front.Inject
	if lay.hop > 0 {
		p.inject = front.Ingress(lay.hop).Inject
	}
	return p
}

// kvHandler builds one kv shard's handler over a fresh cache: a get
// probes it and on a miss fills from the db and installs the value; a
// set stores locally and writes through. What a worker must remember
// across a step — its open probe frame, the envelope fields it rewrote
// for the db sub-request — is in held, one slot per worker.
func (p *pod) kvHandler(db *mesh.Service, workers int) mesh.Handler {
	cache := map[string]int64{}
	held := make([]struct {
		tok  int
		op   string
		size int64
	}, workers)
	leave := func(c *mesh.Call) { c.Probe().Exit(held[c.Worker()].tok) }

	install := func(c *mesh.Call) {
		w, req := &held[c.Worker()], c.Req()
		req.Op, req.Size = w.op, w.size
		cache[req.Key] = req.RespSize
		c.Compute(installCost + kb(req.RespSize))
		c.Then(leave)
	}
	lookup := func(c *mesh.Call) {
		w, req := &held[c.Worker()], c.Req()
		if sz, ok := cache[req.Key]; ok {
			p.hits++
			w.tok = c.Probe().Enter("cache_hit")
			c.Compute(hitReadCost + kb(sz))
			req.RespSize = sz
			c.Then(leave)
			return
		}
		p.misses++
		w.tok = c.Probe().Enter("cache_miss")
		w.op, w.size = req.Op, req.Size
		req.Op, req.Size = "fill", 96
		c.Invoke(db)
		c.Then(install)
	}

	stored := func(c *mesh.Call) {
		req := c.Req()
		req.Op = held[c.Worker()].op
		req.RespSize = 64
	}
	writeThrough := func(c *mesh.Call) {
		w, req := &held[c.Worker()], c.Req()
		c.Probe().Exit(w.tok)
		cache[req.Key] = req.Size
		w.op = req.Op
		req.Op = "store"
		c.Invoke(db)
		c.Then(stored)
	}

	return func(c *mesh.Call) {
		switch req := c.Req(); req.Op {
		case "get":
			c.Compute(probeCost)
			c.Then(lookup)
		case "set":
			held[c.Worker()].tok = c.Probe().Enter("cache_store")
			c.Compute(storeCost + kb(req.Size))
			c.Then(writeThrough)
		}
	}
}

// inject turns a trace event into a mesh request for its key's home
// pod, reusing an envelope from the free list (runs in domain-0
// scheduler context via trace.Replay/OpenLoop). Completions on any
// domain feed that list: a Group never hands a domain to another
// goroutine (internal/vclock/domain.go:16).
func (sys *system) inject(ev trace.Event) {
	var req *mesh.Request
	if n := len(sys.free); n > 0 {
		req = sys.free[n-1]
		sys.free = sys.free[:n-1]
	} else {
		req = &mesh.Request{}
	}
	req.Op, req.Key, req.Size, req.Stream = ev.Op, ev.Key, ev.Size, ev.Stream
	req.RespSize = 0
	sys.injected++
	sys.pods[mesh.KeyHash(ev.Key)%uint64(len(sys.pods))].inject(req)
}

// Run replays cfg.Trace through a fresh mesh and returns the result,
// report included. The replay is finite and every worker parks once the
// last response drains, so the run terminates on its own.
func Run(cfg Config) *Result {
	if cfg.Trace == nil {
		panic("meshkv: Run needs a Trace (only Serve generates its own arrivals)")
	}
	sys := build(cfg)
	trace.Replay(sys.app, cfg.Trace, sys.inject)
	return sys.finish(sys.app.Run())
}

// Serve builds the open-loop serving variant: the same mesh, driven by
// an endless trace.OpenLoop arrival stream (cfg.Trace is ignored) —
// the app behind the serve-mesh serving scenario.
func Serve(cfg Config, gen trace.GenConfig) *whodunit.App {
	sys := build(cfg)
	trace.OpenLoop(sys.app, gen, sys.inject)
	return sys.app
}

func (sys *system) finish(rep *whodunit.Report) *Result {
	res := &Result{
		Config:   sys.cfg,
		Report:   rep,
		Elapsed:  rep.Elapsed,
		Injected: sys.injected,
		Epochs:   sys.app.EpochStats(),
		Kernel:   sys.app.KernelCounters(),
	}
	for _, p := range sys.pods {
		res.ReplicaLoad = append(res.ReplicaLoad, p.completed)
		res.Completed += p.completed
		res.Hits += p.hits
		res.Misses += p.misses
		res.Gets.add(p.gets)
		res.Sets.add(p.sets)
		for _, kv := range p.kvs {
			res.ShardLoad = append(res.ShardLoad, kv.Handled())
		}
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		res.ThroughputRPS = float64(res.Completed) / s
	}
	return res
}

// MegaConfig, MegaResult, DefaultMegaConfig and MegaRun are what is left
// of the replicated layout's former twin model: bench/workloads.go
// compiles against these four names and bench/ is frozen while a PR
// carries other changes. Nothing else may use them; they go in the next
// benchmark-only PR.
type (
	MegaConfig = Config // bench/ only
	MegaResult = Result // bench/ only
)

// DefaultMegaConfig (bench/ only) is four pods of two kv shards, sharded.
func DefaultMegaConfig(tr *trace.Trace) Config {
	cfg := DefaultConfig(tr)
	cfg.Name = "meshkv-mega"
	cfg.Replicas, cfg.Sharded, cfg.Shards = 4, true, 2
	return cfg
}

// MegaRun (bench/ only) is Run.
func MegaRun(cfg Config) *Result { return Run(cfg) }
