package meshkv

import (
	"fmt"

	"whodunit"
	"whodunit/internal/mesh"
	"whodunit/internal/trace"
)

// MegaConfig parameterises the mega-scale mesh deployment: R
// self-contained replica pods — each a full frontend → rpc-proxy →
// kv ring → db pipeline with private per-stage CPUs — fed from a
// domain-0 trace replay that routes each request to a pod by key hash
// (so every key has a home pod and the caches stay pod-coherent). With
// Sharded, pod r lives on time domain r+1 and injection crosses a
// mesh.Ingress pipe of HopLatency (the epoch lookahead); without it the
// identical topology runs on one domain. The output is bit-identical
// either way.
type MegaConfig struct {
	Name string
	Mode whodunit.Mode
	Seed uint64

	Replicas int
	Sharded  bool

	ShardsPerReplica int // kv/cache shards on each pod's ring
	VNodes           int

	FrontendWorkers int // per pod
	ProxyWorkers    int // per pod
	ShardWorkers    int // per kv shard
	DBWorkers       int // per pod

	// HopLatency is the client -> pod network latency; it is also the
	// conservative lookahead, so the epoch width. 0 = 1ms.
	HopLatency whodunit.Duration

	Trace *trace.Trace
}

// DefaultMegaConfig is the scale baseline: four pods, two kv shards
// each, sharded.
func DefaultMegaConfig(tr *trace.Trace) MegaConfig {
	return MegaConfig{
		Name:             "meshkv-mega",
		Mode:             whodunit.ModeWhodunit,
		Seed:             1,
		Replicas:         4,
		Sharded:          true,
		ShardsPerReplica: 2,
		VNodes:           16,
		FrontendWorkers:  4,
		ProxyWorkers:     2,
		ShardWorkers:     2,
		DBWorkers:        2,
		HopLatency:       whodunit.Millisecond,
		Trace:            tr,
	}
}

// MegaResult is the outcome of a mega-scale replay, with the pod-local
// counters merged in replica order.
type MegaResult struct {
	Config        MegaConfig
	Report        *whodunit.Report
	Elapsed       whodunit.Duration
	Injected      int64
	Completed     int64
	Hits          int64
	Misses        int64
	Gets          OpStats
	Sets          OpStats
	ReplicaLoad   []int64 // requests completed per pod
	ThroughputRPS float64
	Epochs        whodunit.EpochStats // what the epoch loop did; differs between layouts, unlike all of the above
}

// HitRate is the cache hit fraction across all gets.
func (r *MegaResult) HitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// megaPod is one replica's counters. All of a pod's tiers run on the
// pod's time domain, so the counters are domain-private during the run.
type megaPod struct {
	completed int64
	hits      int64
	misses    int64
	gets      OpStats
	sets      OpStats
}

// MegaRun replays cfg.Trace through the replicated mesh and returns the
// merged result. The replay is finite and every worker parks once the
// last response drains, so the run terminates on its own.
func MegaRun(cfg MegaConfig) *MegaResult {
	if cfg.Replicas < 1 {
		panic(fmt.Sprintf("meshkv: Replicas must be >= 1 (got %d)", cfg.Replicas))
	}
	if cfg.ShardsPerReplica < 1 {
		panic(fmt.Sprintf("meshkv: ShardsPerReplica must be >= 1 (got %d)", cfg.ShardsPerReplica))
	}
	hop := cfg.HopLatency
	if hop == 0 {
		hop = whodunit.Millisecond
	}
	shards := 1
	if cfg.Sharded {
		shards = cfg.Replicas + 1
	}
	app := whodunit.NewApp(cfg.Name,
		whodunit.WithMode(cfg.Mode),
		whodunit.WithSeed(cfg.Seed),
		whodunit.WithShards(shards))
	topo := mesh.New(app)

	pods := make([]*megaPod, cfg.Replicas)
	ingress := make([]*mesh.Ingress, cfg.Replicas)
	for r := 0; r < cfg.Replicas; r++ {
		shard := r + 1
		pod := &megaPod{}
		pods[r] = pod
		place := []whodunit.StageOption{whodunit.StageShard(shard)}

		db := topo.Service(fmt.Sprintf("db-%d", r), cfg.DBWorkers, func(c *mesh.Call) {
			req := c.Req()
			switch req.Op {
			case "fill":
				c.Compute(dbReadCost + kb(vsize(req.Key)))
				req.RespSize = vsize(req.Key)
			case "store":
				c.Compute(dbWriteCost + kb(req.Size))
				req.RespSize = 64
			}
		}, append([]whodunit.StageOption{whodunit.StageCPU(2)}, place...)...)

		kvs := make([]*mesh.Service, cfg.ShardsPerReplica)
		for i := range kvs {
			cache := map[string]int64{}
			kvs[i] = topo.Service(fmt.Sprintf("kv-%d-%d", r, i), cfg.ShardWorkers, func(c *mesh.Call) {
				req := c.Req()
				pr := c.Probe()
				switch req.Op {
				case "get":
					c.Compute(probeCost)
					if sz, ok := cache[req.Key]; ok {
						pod.hits++
						func() {
							defer pr.Exit(pr.Enter("cache_hit"))
							c.Compute(hitReadCost + kb(sz))
						}()
						req.RespSize = sz
					} else {
						pod.misses++
						func() {
							defer pr.Exit(pr.Enter("cache_miss"))
							op, size := req.Op, req.Size
							req.Op, req.Size = "fill", 96
							c.Invoke(db)
							req.Op, req.Size = op, size
							cache[req.Key] = req.RespSize
							c.Compute(installCost + kb(req.RespSize))
						}()
					}
				case "set":
					func() {
						defer pr.Exit(pr.Enter("cache_store"))
						c.Compute(storeCost + kb(req.Size))
					}()
					cache[req.Key] = req.Size
					op := req.Op
					req.Op = "store"
					c.Invoke(db)
					req.Op = op
					req.RespSize = 64
				}
			}, append([]whodunit.StageOption{whodunit.StageCPU(1)}, place...)...)
		}

		ring := mesh.NewRing(cfg.VNodes, kvs...)
		rpc := topo.Proxy(fmt.Sprintf("rpc-proxy-%d", r), mesh.Streaming, cfg.ProxyWorkers,
			ring, append([]whodunit.StageOption{whodunit.StageCPU(1)}, place...)...)

		front := topo.Service(fmt.Sprintf("frontend-%d", r), cfg.FrontendWorkers, func(c *mesh.Call) {
			req := c.Req()
			c.Compute(parseCost + kb(req.Size))
			c.Invoke(rpc)
			c.Compute(respondCost + kb(req.RespSize))
		}, append([]whodunit.StageOption{whodunit.StageCPU(2)}, place...)...)
		front.OnComplete = func(req *mesh.Request, now whodunit.Time) {
			pod.completed++
			st := &pod.gets
			if req.Op == "set" {
				st = &pod.sets
			}
			st.Count++
			st.TotalLatency += now.Sub(req.Start)
		}
		ingress[r] = front.Ingress(hop)
	}

	// The load balancer: domain-0 replay routes each event to its key's
	// home pod over that pod's ingress pipe. Envelopes are allocated per
	// event — completion happens on the pod's domain, so recycling the
	// envelope back into the domain-0 injector would race.
	var injected int64
	trace.Replay(app, cfg.Trace, func(ev trace.Event) {
		req := &mesh.Request{Op: ev.Op, Key: ev.Key, Size: ev.Size, Stream: ev.Stream}
		injected++
		ingress[int(mesh.KeyHash(ev.Key)%uint64(cfg.Replicas))].Inject(req)
	})
	rep := app.Run()

	res := &MegaResult{
		Config:      cfg,
		Report:      rep,
		Elapsed:     rep.Elapsed,
		Injected:    injected,
		ReplicaLoad: make([]int64, cfg.Replicas),
		Epochs:      app.EpochStats(),
	}
	for r, pod := range pods {
		res.ReplicaLoad[r] = pod.completed
		res.Completed += pod.completed
		res.Hits += pod.hits
		res.Misses += pod.misses
		res.Gets.Count += pod.gets.Count
		res.Gets.TotalLatency += pod.gets.TotalLatency
		res.Sets.Count += pod.sets.Count
		res.Sets.TotalLatency += pod.sets.TotalLatency
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		res.ThroughputRPS = float64(res.Completed) / s
	}
	return res
}
