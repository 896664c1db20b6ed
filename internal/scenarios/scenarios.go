// Package scenarios is the seeded scenario corpus behind Whodunit's
// regression harness: a table of small, fully deterministic runs
// spanning the four internal app models (apacheweb, squidproxy, haboob,
// tpcw) across profiling modes and core counts, plus API-level
// scenarios mirroring the examples (quickstart's request/response
// pair, the fdqueue flow handoff, the event-driven server, the SEDA
// pipeline). Every scenario produces a Report pinned bit-for-bit as a
// golden file (see scenarios_test.go, regenerable with -update), and
// the harness additionally asserts Diff(golden, fresh) is empty — so a
// behavioral regression surfaces both as a byte drift and as a
// structural CCT delta a human can read.
//
// cmd/whodunit-run prints a scenario's report and cmd/whodunit-diff
// compares two, both by name (with seed and mode overrides), without
// writing any harness code.
package scenarios

import (
	"fmt"
	"io"
	"log"
	"strconv"
	"strings"
	"time"

	"whodunit"
	"whodunit/internal/apps/apacheweb"
	"whodunit/internal/apps/haboob"
	"whodunit/internal/apps/squidproxy"
	"whodunit/internal/apps/tpcw"
	"whodunit/internal/par"
	"whodunit/internal/profiler"
	"whodunit/internal/vclock"
	"whodunit/internal/workload"
)

// Params are the knobs every scenario exposes: the RNG seed feeding its
// workload and the profiling mode. A run spec overrides them
// ("apache:seed=7,mode=csprof"). A trace-replay mesh spec may also name
// a trace file: Trace replays it, WriteTrace records the generated
// trace there first ("mesh-deep:write-trace=t.jsonl"). Only Run acts on
// the two paths.
type Params struct {
	Seed              uint64
	Mode              whodunit.Mode
	Trace, WriteTrace string
}

// Scenario is one corpus entry. Exactly one of MakeApp and Make is set:
// MakeApp builds an unrun App (API-level scenarios), Make runs a model
// whose App lives inside its Run function and returns the assembled
// report.
type Scenario struct {
	Name     string
	About    string
	Defaults Params

	MakeApp func(p Params) *whodunit.App
	Make    func(p Params) *whodunit.Report

	// mesh is set on the trace-replay mesh scenarios: the trace= and
	// write-trace= keys act on it.
	mesh *meshReplay
}

// Report runs the scenario fresh at its parameters. It reads and
// writes no file: a spec's Trace and WriteTrace are Run's.
func (s Scenario) Report() *whodunit.Report {
	if s.MakeApp != nil {
		return s.MakeApp(s.Defaults).Run()
	}
	return s.Make(s.Defaults)
}

// Run runs the scenario as the command-line tools do: Report, except
// that a mesh spec naming a trace file replays that file (a note on
// what a salvaging read lost goes to warn) or records its generated
// trace there before replaying it. A file that cannot be read, holds no
// replayable event or cannot be written is an error.
func (s Scenario) Run(warn *log.Logger) (*whodunit.Report, error) {
	p := s.Defaults
	if p.Trace == "" && p.WriteTrace == "" {
		return s.Report(), nil
	}
	tr, err := s.mesh.trace(p, warn)
	if err != nil {
		return nil, err
	}
	return s.mesh.replay(p, tr), nil
}

// goldenTrace is the fixed web workload the three legacy web-server
// scenarios share — the exact shape the pre-corpus golden tests pinned.
func goldenTrace(seed uint64) *workload.WebTrace {
	cfg := workload.DefaultWebConfig()
	cfg.Seed = seed
	cfg.NumConns = 150
	cfg.NumFiles = 200
	cfg.MinSize = 8 << 10
	return workload.GenWeb(cfg)
}

// smallTrace is the reduced workload of the mode/core-count spanning
// scenarios, sized so the whole corpus stays test-suite fast.
func smallTrace(seed uint64) *workload.WebTrace {
	cfg := workload.DefaultWebConfig()
	cfg.Seed = seed
	cfg.NumConns = 60
	cfg.NumFiles = 120
	cfg.MinSize = 8 << 10
	return workload.GenWeb(cfg)
}

func apacheScenario(name, about string, defaults Params, cores int, trace func(uint64) *workload.WebTrace) Scenario {
	return Scenario{
		Name: name, About: about, Defaults: defaults,
		Make: func(p Params) *whodunit.Report {
			cfg := apacheweb.DefaultConfig(trace(p.Seed))
			cfg.Mode = p.Mode
			cfg.Cores = cores
			return apacheweb.Run(cfg).Report
		},
	}
}

func squidScenario(name, about string, defaults Params, trace func(uint64) *workload.WebTrace) Scenario {
	return Scenario{
		Name: name, About: about, Defaults: defaults,
		Make: func(p Params) *whodunit.Report {
			cfg := squidproxy.DefaultConfig(trace(p.Seed))
			cfg.Mode = p.Mode
			return squidproxy.Run(cfg).Report
		},
	}
}

func haboobScenario(name, about string, defaults Params, threadsPerStage int, trace func(uint64) *workload.WebTrace) Scenario {
	return Scenario{
		Name: name, About: about, Defaults: defaults,
		Make: func(p Params) *whodunit.Report {
			cfg := haboob.DefaultConfig(trace(p.Seed))
			cfg.Mode = p.Mode
			if threadsPerStage > 0 {
				cfg.ThreadsPerStage = threadsPerStage
			}
			return haboob.Run(cfg).Report
		},
	}
}

func tpcwScenario(name, about string, defaults Params, clients int, duration whodunit.Duration) Scenario {
	return Scenario{
		Name: name, About: about, Defaults: defaults,
		Make: func(p Params) *whodunit.Report {
			cfg := tpcw.DefaultConfig(clients)
			cfg.Duration = duration
			cfg.Mode = p.Mode
			cfg.Seed = p.Seed
			return tpcw.Run(cfg).Report
		},
	}
}

// quickstartApp is the examples/quickstart shape: a web and a db stage
// exchanging request/response messages, with the page sequence drawn
// from the scenario seed.
func quickstartApp(p Params) *whodunit.App {
	app := whodunit.NewApp("quickstart",
		whodunit.WithMode(p.Mode),
		whodunit.WithCores(2),
		whodunit.WithSeed(p.Seed))
	web, db := app.Stage("web"), app.Stage("db")
	reqQ, respQ := app.NewQueue("requests"), app.NewQueue("responses")

	// The page sequence is fixed before any thread runs, so every worker
	// loop has a static bound and the app terminates on its own (Report
	// drives it with plain Run, no stop predicate).
	rng := vclock.NewRNG(p.Seed)
	pages := make([]string, 100)
	for i := range pages {
		if rng.Float64() < 0.5 {
			pages[i] = "home"
		} else {
			pages[i] = "search"
		}
	}

	db.Go("db", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for i := 0; i < len(pages); i++ {
			msg := reqQ.Get(th).(whodunit.Msg)
			db.Endpoint().Recv(pr, msg)
			func() {
				defer pr.Exit(pr.Enter("exec_query"))
				if msg.Data == "search" {
					defer pr.Exit(pr.Enter("sort_rows"))
					pr.Compute(30 * whodunit.Millisecond)
				} else {
					pr.Compute(3 * whodunit.Millisecond)
				}
				respQ.Put(db.Endpoint().Send(pr, nil))
			}()
		}
	})
	web.Go("web", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for _, page := range pages {
			func() {
				defer pr.Exit(pr.Enter("serve_" + page))
				pr.Compute(whodunit.Millisecond)
				reqQ.Put(web.Endpoint().Send(pr, page))
				web.Endpoint().Recv(pr, respQ.Get(th).(whodunit.Msg))
			}()
		}
	})
	return app
}

// fdqueueApp is the examples/fdqueue shape: transaction context crossing
// a shared-memory queue with zero propagation code (§3.5). Each worker
// pops a fixed share of the connections, so the app self-terminates.
func fdqueueApp(p Params) *whodunit.App {
	app := whodunit.NewApp("fdqueue",
		whodunit.WithMode(p.Mode),
		whodunit.WithCores(2),
		whodunit.WithSeed(p.Seed),
		whodunit.WithFlowDetection())
	st := app.Stage("fdqueue")
	connQ := app.NewQueue("conns")

	const conns, workers = 120, 4
	rng := vclock.NewRNG(p.Seed)
	kinds := make([]string, conns)
	for i := range kinds {
		if rng.Float64() < 1.0/3 {
			kinds[i] = "dynamic"
		} else {
			kinds[i] = "static"
		}
	}

	st.Go("listener", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for _, kind := range kinds {
			kind := kind
			func() {
				defer pr.Exit(pr.Enter("listener_thread"))
				st.BeginTxn(pr, "listener_thread", "accept_"+kind)
				pr.Compute(50 * whodunit.Microsecond)
				connQ.Push(pr, kind)
			}()
		}
	})
	for w := 0; w < workers; w++ {
		st.Go(fmt.Sprintf("worker-%d", w), func(th *whodunit.Thread, pr *whodunit.Probe) {
			for i := 0; i < conns/workers; i++ {
				func() {
					defer pr.Exit(pr.Enter("worker_thread"))
					kind := connQ.Pop(pr).(string)
					cost := 2 * whodunit.Millisecond
					if kind == "dynamic" {
						cost = 6 * whodunit.Millisecond
					}
					func() {
						defer pr.Exit(pr.Enter("serve_connection"))
						pr.Compute(cost)
					}()
				}()
			}
		})
	}
	return app
}

// eventserverApp is the examples/eventserver shape: an event-driven
// proxy whose write handler's cost splits between the hit and miss
// handler-sequence contexts (the Figure 9 effect).
func eventserverApp(p Params) *whodunit.App {
	app := whodunit.NewApp("eventserver",
		whodunit.WithMode(p.Mode),
		whodunit.WithCores(1),
		whodunit.WithSeed(p.Seed))
	proxy := app.Stage("proxy")
	loop := proxy.EventLoop()
	ready := app.NewQueue("ready")

	cache := map[int]bool{}
	served := 0
	const total = 200
	rng := vclock.NewRNG(p.Seed)

	var pr *whodunit.Probe
	var hWrite, hFetch, hRead *whodunit.EventHandler
	hWrite = &whodunit.EventHandler{Name: "write_reply", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		pr.Compute(4 * whodunit.Millisecond)
		served++
	}}
	hFetch = &whodunit.EventHandler{Name: "fetch_origin", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		pr.Compute(9 * whodunit.Millisecond)
		cache[ev.Data.(int)] = true
		ready.Put(l.NewEvent(hWrite, ev.Data))
	}}
	hRead = &whodunit.EventHandler{Name: "read_request", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		pr.Compute(whodunit.Millisecond)
		obj := ev.Data.(int)
		if cache[obj] {
			ready.Put(l.NewEvent(hWrite, obj))
		} else {
			ready.Put(l.NewEvent(hFetch, obj))
		}
	}}
	for i := 0; i < total; i++ {
		ready.Put(&whodunit.Event{Handler: hRead, Data: rng.Intn(40)})
	}
	proxy.Go("event_loop", func(th *whodunit.Thread, probe *whodunit.Probe) {
		pr = probe
		proxy.BindLoop(pr)
		for served < total {
			loop.Dispatch(ready.Get(th).(*whodunit.Event))
		}
	})
	return app
}

// sedapipelineApp is the examples/sedapipeline shape: a four-stage SEDA
// pipeline whose shared Reply stage splits between the fast- and
// slow-path stage-sequence contexts (the Figure 10 effect). The hit and
// miss counts are drawn up front so every stage worker has a static
// loop bound.
func sedapipelineApp(p Params) *whodunit.App {
	app := whodunit.NewApp("sedapipeline",
		whodunit.WithMode(p.Mode),
		whodunit.WithCores(2),
		whodunit.WithSeed(p.Seed))
	pipe := app.Stage("pipe")

	qIn, qHit, qMiss, qOut := app.NewQueue("in"), app.NewQueue("hit"), app.NewQueue("miss"), app.NewQueue("out")
	stIn := pipe.SEDAStage("Classify", qIn)
	stHit := pipe.SEDAStage("FastPath", qHit)
	stMiss := pipe.SEDAStage("SlowPath", qMiss)
	stOut := pipe.SEDAStage("Reply", qOut)

	const total = 300
	rng := vclock.NewRNG(p.Seed)
	miss := make([]bool, total)
	misses := 0
	for i := range miss {
		if rng.Float64() < 1.0/3 {
			miss[i] = true
			misses++
		}
	}
	next := 0

	worker := func(st *whodunit.SEDAStage, n int, body func(w *whodunit.SEDAWorker, pr *whodunit.Probe, data any)) {
		pipe.Go(st.Name, func(th *whodunit.Thread, pr *whodunit.Probe) {
			w := pipe.Worker(st, pr)
			q := st.In.(*whodunit.Queue)
			for i := 0; i < n; i++ {
				data := w.Begin(q.Get(th).(*whodunit.SEDAElem))
				func() {
					defer pr.Exit(pr.Enter(st.Name))
					body(w, pr, data)
				}()
			}
		})
	}
	worker(stIn, total, func(w *whodunit.SEDAWorker, pr *whodunit.Probe, data any) {
		pr.Compute(whodunit.Millisecond)
		if miss[next] {
			w.Enqueue(stMiss, data)
		} else {
			w.Enqueue(stHit, data)
		}
		next++
	})
	worker(stHit, total-misses, func(w *whodunit.SEDAWorker, pr *whodunit.Probe, data any) {
		pr.Compute(2 * whodunit.Millisecond)
		w.Enqueue(stOut, data)
	})
	worker(stMiss, misses, func(w *whodunit.SEDAWorker, pr *whodunit.Probe, data any) {
		pr.Compute(12 * whodunit.Millisecond)
		w.Enqueue(stOut, data)
	})
	worker(stOut, total, func(w *whodunit.SEDAWorker, pr *whodunit.Probe, data any) {
		pr.Compute(3 * whodunit.Millisecond)
	})
	for i := 0; i < total; i++ {
		pipe.Inject(stIn, i)
	}
	return app
}

// all is the corpus. Scenario order is the order goldens regenerate and
// RunAll reports — keep it stable.
var all = []Scenario{
	// The four app models at the legacy golden configurations; their
	// goldens are the bit-identical continuation of the pre-corpus
	// internal/apps/golden files.
	apacheScenario("apache", "Apache worker model, whodunit mode, 2 cores (legacy golden scale)",
		Params{Seed: 42, Mode: whodunit.ModeWhodunit}, 2, goldenTrace),
	squidScenario("squid", "Squid event-driven proxy, whodunit mode (legacy golden scale)",
		Params{Seed: 42, Mode: whodunit.ModeWhodunit}, goldenTrace),
	haboobScenario("haboob", "Haboob SEDA server, whodunit mode (legacy golden scale)",
		Params{Seed: 42, Mode: whodunit.ModeWhodunit}, 0, goldenTrace),
	tpcwScenario("tpcw", "TPC-W three-tier system, whodunit mode, 25 clients (legacy golden scale)",
		Params{Seed: 1, Mode: whodunit.ModeWhodunit}, 25, 45*whodunit.Second),

	// Mode x core-count spanning scenarios at reduced scale.
	apacheScenario("apache-csprof-1core", "Apache, plain csprof sampling, 1 core",
		Params{Seed: 42, Mode: whodunit.ModeSampling}, 1, smallTrace),
	apacheScenario("apache-gprof-4core", "Apache, instrumented gprof mode, 4 cores",
		Params{Seed: 42, Mode: whodunit.ModeInstrumented}, 4, smallTrace),
	apacheScenario("apache-off", "Apache, profiling off (overhead baseline), 2 cores",
		Params{Seed: 42, Mode: whodunit.ModeOff}, 2, smallTrace),
	squidScenario("squid-csprof", "Squid, plain csprof sampling",
		Params{Seed: 42, Mode: whodunit.ModeSampling}, smallTrace),
	squidScenario("squid-gprof", "Squid, instrumented gprof mode",
		Params{Seed: 42, Mode: whodunit.ModeInstrumented}, smallTrace),
	haboobScenario("haboob-gprof-4workers", "Haboob, instrumented gprof mode, 4 threads per stage",
		Params{Seed: 42, Mode: whodunit.ModeInstrumented}, 4, smallTrace),
	tpcwScenario("tpcw-csprof-10c", "TPC-W, plain csprof sampling, 10 clients",
		Params{Seed: 1, Mode: whodunit.ModeSampling}, 10, 30*whodunit.Second),

	// API-level scenarios mirroring the examples.
	{Name: "quickstart", About: "two-stage request/response app (examples/quickstart)",
		Defaults: Params{Seed: 7, Mode: whodunit.ModeWhodunit}, MakeApp: quickstartApp},
	{Name: "fdqueue", About: "shared-memory flow handoff through App.NewQueue (examples/fdqueue)",
		Defaults: Params{Seed: 7, Mode: whodunit.ModeWhodunit}, MakeApp: fdqueueApp},
	{Name: "eventserver", About: "event-driven proxy with handler-sequence contexts (examples/eventserver)",
		Defaults: Params{Seed: 7, Mode: whodunit.ModeWhodunit}, MakeApp: eventserverApp},
	{Name: "sedapipeline", About: "four-stage SEDA pipeline (examples/sedapipeline)",
		Defaults: Params{Seed: 7, Mode: whodunit.ModeWhodunit}, MakeApp: sedapipelineApp},

	// Degraded-mode scenario: the TPC-W run with the mysql tier's dump
	// lost — the partial stitched report (severed edges into the
	// "(missing)" sink) is pinned bit-for-bit like any healthy report.
	{Name: "tpcw-partial", About: "TPC-W, 10 clients, with the mysql tier's dump lost (partial stitched report)",
		Defaults: Params{Seed: 1, Mode: whodunit.ModeWhodunit},
		Make: func(p Params) *whodunit.Report {
			full := tpcwScenario("", "", Params{}, 10, 30*whodunit.Second).Make(p)
			return full.DropStage("mysql")
		}},

	// Microservice-mesh scenarios: trace-replay driven meshkv topologies
	// (see mesh.go).
	meshScenario("mesh-steady", "4-shard mesh KV replaying a steady Zipfian cache trace",
		Params{Seed: 5, Mode: whodunit.ModeWhodunit}, meshSteadyTrace(), false),
	meshScenario("mesh-hot-key", "4-shard mesh KV with 60% of gets on 3 hot keys (shard imbalance)",
		Params{Seed: 5, Mode: whodunit.ModeWhodunit}, meshHotKeyTrace(), false),
	meshScenario("mesh-deep", "deep 7-tier proxy-chain mesh replaying a bursty meta-KV trace (≥6-hop chains)",
		Params{Seed: 5, Mode: whodunit.ModeWhodunit}, meshDeepTrace(), true),

	// Mega-scale replicated deployments, each as a sharded/serial pair
	// with byte-identical goldens (see mega.go).
	tpcwMegaScenario("tpcw-mega", "replicated TPC-W, 3 pods on their own time domains + shared MySQL (WithShards)", true),
	tpcwMegaScenario("tpcw-mega-serial", "replicated TPC-W, identical topology on one time domain (sharding baseline)", false),
	meshMegaScenario("mesh-mega", "replicated mesh KV, 4 pods on their own time domains, key-hash load balancing (WithShards)", true),
	meshMegaScenario("mesh-mega-serial", "replicated mesh KV, identical topology on one time domain (sharding baseline)", false),
}

// All returns the corpus in its stable order.
func All() []Scenario {
	out := make([]Scenario, len(all))
	copy(out, all)
	return out
}

// ByName looks a scenario up.
func ByName(name string) (Scenario, bool) {
	for _, s := range all {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// List prints both tables for a tool's -list: the batch corpus, then
// the serving corpus, each serving line with its recommended window and
// threshold and the tool that runs it.
func List(w io.Writer) {
	for _, s := range all {
		fmt.Fprintf(w, "%-24s %s\n", s.Name, s.About)
	}
	for _, s := range serveAll {
		fmt.Fprintf(w, "%-24s [whodunit-serve] window %s, threshold %d — %s\n",
			s.Name, time.Duration(s.Window), s.Threshold, s.About)
	}
}

// unknown explains a name the caller's table lacks: it names the tool
// that runs a scenario of the other table.
func unknown(name string) error {
	if _, ok := ByName(name); ok {
		return fmt.Errorf("scenarios: %q is a batch scenario (run it with whodunit-run %s)", name, name)
	}
	if _, ok := ServeByName(name); ok {
		return fmt.Errorf("scenarios: %q is a serving scenario (run it with whodunit-serve -scenario %s)", name, name)
	}
	return fmt.Errorf("scenarios: unknown scenario %q (-list shows the corpus)", name)
}

// ParseSpec resolves a run spec of the form
//
//	name[:key=value[,key=value...]]
//
// where keys are "seed" (uint) and "mode" (off|csprof|whodunit|gprof),
// and, on the trace-replay mesh scenarios, one of "trace" and
// "write-trace" (a file path without a comma), returning the scenario
// with its defaults overridden. ParseSpec does no I/O: the paths are
// Run's. This is the grammar of cmd/whodunit-run's argument and
// cmd/whodunit-diff's -run flag; ParseServeSpec reads the same grammar
// for the serving corpus.
func ParseSpec(spec string) (Scenario, error) {
	name, overrides, _ := strings.Cut(spec, ":")
	s, ok := ByName(name)
	if !ok {
		return Scenario{}, unknown(name)
	}
	if err := override(&s.Defaults, spec, overrides, s.mesh != nil); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// override applies a spec's comma-separated key=value overrides to p.
// traces says whether the trace keys apply (the trace-replay mesh
// scenarios).
func override(p *Params, spec, overrides string, traces bool) error {
	if overrides == "" {
		return nil
	}
	for _, kv := range strings.Split(overrides, ",") {
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return fmt.Errorf("scenarios: bad override %q in %q (want key=value)", kv, spec)
		}
		switch key {
		case "seed":
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("scenarios: bad seed %q in %q: %v", val, spec, err)
			}
			p.Seed = seed
		case "mode":
			m, err := whodunit.ParseMode(val)
			if err != nil {
				return fmt.Errorf("scenarios: unknown mode %q (want %s) in %q", val, strings.Join(profiler.ModeNames, "|"), spec)
			}
			p.Mode = m
		case "trace", "write-trace":
			if !traces {
				return fmt.Errorf("scenarios: %s= in %q needs a trace-replay mesh scenario (mesh-steady, mesh-hot-key or mesh-deep)", key, spec)
			}
			if val == "" {
				return fmt.Errorf("scenarios: empty %s= path in %q", key, spec)
			}
			if key == "trace" {
				p.Trace = val
			} else {
				p.WriteTrace = val
			}
		default:
			return fmt.Errorf("scenarios: unknown override key %q in %q (want seed, mode, trace or write-trace)", key, spec)
		}
	}
	if p.Trace != "" && p.WriteTrace != "" {
		return fmt.Errorf("scenarios: trace= and write-trace= conflict in %q: replaying a file generates nothing to write", spec)
	}
	return nil
}

// RunAll runs every scenario in list fresh and returns their reports in
// input order, fanned out through the par worker pool the model sweeps
// use. Reports are bit-identical to running each scenario serially —
// that is the differential-determinism regression test.
func RunAll(list []Scenario) []*whodunit.Report {
	reports := make([]*whodunit.Report, len(list))
	par.Do(len(list), func(i int) { reports[i] = list[i].Report() })
	return reports
}
