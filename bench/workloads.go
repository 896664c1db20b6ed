package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"whodunit"
	"whodunit/internal/apps/apacheweb"
	"whodunit/internal/apps/meshkv"
	"whodunit/internal/apps/tpcw"
	"whodunit/internal/trace"
	"whodunit/internal/workload"
)

// The six workloads. The benchmark owns these configs — each app
// package's DefaultConfig plus the overrides spelled out here — rather
// than borrowing internal/scenarios, so an edit to the golden corpus
// never moves a benchmark number.
//
// Sizes are "scale 1" and give about one second of host time per
// repetition on a 2-CPU host; scale multiplies every size (the smoke
// test runs at 1/50). All arrival processes run on the virtual clock: a
// host stall cannot delay an arrival, so generator lateness is 0 by
// construction and is not reported as a metric.

// simStats are the simulated statistics of one repetition. A change that
// only speeds the simulator up must leave them identical, so they are
// pinned next to the report digest in expected.json.
type simStats struct {
	Completed int64   `json:"completed"`
	ElapsedS  float64 `json:"elapsed_s"`
	Samples   int64   `json:"samples"`
}

// outcome is what one repetition of a workload produced. Everything in
// it is read off exported results after the timed region ended.
type outcome struct {
	ops      int64 // completed operations (the op_ns divisor)
	injected int64 // operations the load generator issued or was asked for
	sim      simStats
	// reports are digested in order; the last one is the workload's
	// final report, the input of the analyze pass.
	reports []*whodunit.Report
	// server is set on the serve workload only: the finished Server
	// whose retained windows the analyze pass reads over HTTP.
	server *whodunit.Server

	emuCycles int64
	windows   int64
}

func (o *outcome) final() *whodunit.Report { return o.reports[len(o.reports)-1] }

// counts are the work counts of the repetition, summed over its
// reports, from exported results only. The kernel exposes no event
// counts yet, which is why explained_frac is far from 1.
func (o *outcome) counts() map[string]int64 {
	c := map[string]int64{
		"count.samples": 0, "count.calls": 0, "count.ctxt_switches": 0,
		"count.edges": 0, "count.flows": 0,
		"count.emu_cycles": o.emuCycles, "count.windows": o.windows,
	}
	for _, r := range o.reports {
		for _, sr := range r.Stages {
			c["count.samples"] += sr.Samples
			c["count.calls"] += sr.Calls
			c["count.ctxt_switches"] += sr.CtxtSwitches
		}
		c["count.edges"] += int64(len(r.Graph.Edges))
		c["count.flows"] += int64(len(r.Flows))
	}
	return c
}

// digest is the SHA-256 of the JSON encoding of every report of the
// repetition, in order. It is computed outside the timed region, and
// streamed into the hash so that a 15 MB report does not also sit in a
// buffer of the benchmark's and show up in peak_rss_mb.
func (o *outcome) digest() string {
	h := sha256.New()
	for _, r := range o.reports {
		if err := r.JSON(h); err != nil {
			panic(err) // a Report always encodes; a failure is a bug
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workloadDef is one benchmark workload: gen builds its inputs from the
// seed (the program under test receives only these), run is the timed
// region.
type workloadDef struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json
	op   string // what one operation is
	load string // open or closed loop, with its rate or client count
	gen  func(seed uint64, scale float64) any
	run  func(in any) *outcome
	// ref, when set, runs the same inputs a second way whose output must
	// be byte-identical; it is run once, untimed.
	ref func(in any) *outcome
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

var workloads = []workloadDef{
	{
		name: "tpcw",
		why:  "paper's headline app (section 8.4): only workload on minidb, crosstalk and coro-frame clients; vm and shmflow idle",
		op:   "completed web interaction",
		load: "closed loop, 200 clients, 7 s mean think time, 50 virtual minutes",
		gen: func(seed uint64, scale float64) any {
			cfg := tpcw.DefaultConfig(200)
			cfg.Duration = whodunit.Duration(scaled(50*60, scale)) * whodunit.Second
			cfg.Seed = seed
			return cfg
		},
		run: func(in any) *outcome {
			res := tpcw.Run(in.(tpcw.Config))
			// A closed loop has no injected count: interactions still in
			// flight when virtual time runs out are not failures.
			return &outcome{
				ops: res.Completed, injected: res.Completed,
				sim:     simStats{res.Completed, res.Elapsed.Seconds(), res.Report.TotalSamples()},
				reports: []*whodunit.Report{res.Report},
			}
		},
	},
	{
		name: "apache",
		why:  "section 3 flow detection: vm emulation, shmflow tracker and the emulated fd queue dominate; ipc, minidb idle; large report",
		op:   "HTTP request",
		load: "open loop at saturation: 40000 connections accepted back to back, 8 workers on 2 cores",
		gen: func(seed uint64, scale float64) any {
			wc := workload.DefaultWebConfig()
			wc.Seed = seed
			wc.NumConns = scaled(40000, scale)
			return apacheweb.DefaultConfig(workload.GenWeb(wc))
		},
		run: func(in any) *outcome {
			cfg := in.(apacheweb.Config)
			var want int64
			for _, c := range cfg.Trace.Conns {
				want += int64(len(c.Reqs))
			}
			res := apacheweb.Run(cfg)
			return &outcome{
				ops: res.Requests, injected: want,
				sim:       simStats{res.Requests, res.Elapsed.Seconds(), res.Report.TotalSamples()},
				reports:   []*whodunit.Report{res.Report},
				emuCycles: res.EmulationCycles,
			}
		},
	},
	{
		name: "mesh-deep",
		why:  "7-tier chain, 6+ hops per op: goroutine-engine thread switches and ipc send/recv dominate; vm, minidb idle",
		op:   "trace event completed",
		load: "open loop on the virtual clock from trace timestamps (bursty meta-kv shape), 100000 events",
		gen: func(seed uint64, scale float64) any {
			g := trace.MetaKV()
			g.Seed = seed
			g.Events = scaled(100000, scale)
			cfg := meshkv.DefaultConfig(trace.Gen(g))
			cfg.Deep = true
			cfg.Seed = seed
			return cfg
		},
		run: func(in any) *outcome {
			res := meshkv.Run(in.(meshkv.Config))
			return &outcome{
				ops: res.Completed, injected: res.Injected,
				sim:     simStats{res.Completed, res.Elapsed.Seconds(), res.Report.TotalSamples()},
				reports: []*whodunit.Report{res.Report},
			}
		},
	},
	{
		name: "mega-serial",
		why:  "4 pods x 2 kv shards on one time domain: the bypass for every epoch/barrier change, prediction no change",
		op:   "trace event completed",
		load: "open loop on the virtual clock from trace timestamps (cache-trace shape), 150000 events",
		gen:  func(seed uint64, scale float64) any { return megaConfig(seed, scale, false) },
		run:  runMega,
	},
	{
		name: "mega-sharded",
		why:  "same program on 5 time domains: epoch barrier, cross-domain exchange and par.Do per 1 ms epoch; digest must equal mega-serial",
		op:   "trace event completed",
		load: "open loop on the virtual clock from trace timestamps (cache-trace shape), 150000 events",
		gen:  func(seed uint64, scale float64) any { return megaConfig(seed, scale, true) },
		run:  runMega,
		ref: func(in any) *outcome {
			cfg := in.(meshkv.MegaConfig)
			cfg.Sharded = false
			return runMega(cfg)
		},
	},
	{
		name: "serve",
		why:  "reads beside writes: CCTs are retired, snapshotted, restitched and diffed every window, then read over HTTP",
		op:   "retired window",
		load: "open loop, endless cache-trace arrival stream (3 ms mean gap), 2 s windows, 300 windows, free-running",
		gen: func(seed uint64, scale float64) any {
			return serveInput{seed: seed, windows: scaled(300, scale)}
		},
		run: runServe,
	},
}

func workloadNamed(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func megaConfig(seed uint64, scale float64, sharded bool) meshkv.MegaConfig {
	g := trace.CacheTrace()
	g.Seed = seed
	g.Events = scaled(150000, scale)
	cfg := meshkv.DefaultMegaConfig(trace.Gen(g))
	// One name for both layouts, so their reports can be compared byte
	// for byte.
	cfg.Name = "mega"
	cfg.Seed = seed
	cfg.Sharded = sharded
	return cfg
}

func runMega(in any) *outcome {
	res := meshkv.MegaRun(in.(meshkv.MegaConfig))
	return &outcome{
		ops: res.Completed, injected: res.Injected,
		sim:     simStats{res.Completed, res.Elapsed.Seconds(), res.Report.TotalSamples()},
		reports: []*whodunit.Report{res.Report},
	}
}

// serveInput is the serve workload's input: the serving variant draws
// its arrivals on the fly from the seed, so there is no trace to build.
type serveInput struct {
	seed    uint64
	windows int
}

// serveRetain is how many retired windows the server keeps queryable;
// the digest and the HTTP analyze pass cover exactly these.
const serveRetain = 16

func runServe(in any) *outcome {
	si := in.(serveInput)
	cfg := meshkv.DefaultConfig(nil)
	cfg.Name = "serve-mesh"
	cfg.Seed = si.seed
	g := trace.CacheTrace()
	g.Seed = si.seed
	srv := whodunit.NewServer(meshkv.Serve(cfg, g), whodunit.ServeConfig{
		Window:     2 * whodunit.Second,
		Retain:     serveRetain,
		Threshold:  200,
		MaxWindows: si.windows,
	})
	srv.Run()
	o := &outcome{server: srv, injected: int64(si.windows)}
	o.windows = srv.Ring().Total()
	o.ops = o.windows
	o.sim.Completed = o.windows
	for _, kv := range srv.Ring().Entries() {
		rep := kv.V.Report
		o.reports = append(o.reports, rep)
		o.sim.Samples += rep.TotalSamples()
		o.sim.ElapsedS = rep.Window.End.Seconds()
	}
	if len(o.reports) == 0 {
		panic(fmt.Sprintf("serve: no window retained after %d retirements", o.windows))
	}
	return o
}
