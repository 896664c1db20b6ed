package scenarios

import (
	"fmt"
	"strings"
	"time"

	"whodunit"
	"whodunit/internal/vclock"
)

// Serving scenarios: open-loop, self-sustaining apps for the continuous
// profiling service (whodunit.Server, cmd/whodunit-serve). Unlike the
// batch corpus above, these apps never terminate on their own — an
// arrival process keeps injecting work on the virtual clock — so they
// live in their own registry: RunAll would hang on them, and the serving
// harness (bounded window counts, Stop) is the only way to drive them.
//
// Determinism carries over unchanged: with a fixed seed the sequence of
// retired-window Reports is bit-identical across runs, and the windowed
// goldens in testdata pin it.

// ServeScenario is one serving-corpus entry: an open-loop app plus the
// recommended window length and adjacent-window alert threshold for
// serving it.
type ServeScenario struct {
	Name     string
	About    string
	Defaults Params
	// Window is the recommended aggregation-window length.
	Window whodunit.Duration
	// Threshold is the recommended adjacent-window alert threshold (in
	// sample units, see ReportDiff.MaxDelta): comfortably above the
	// scenario's steady-state window-to-window noise, comfortably below
	// any real behavior shift it models.
	Threshold int64

	// App builds the app for the given 0-based run attempt. Every
	// serving scenario is served supervised: the server rebuilds through
	// App after a crash, so a scenario can inject a failure into run 0
	// only and model recovery. A run that does not die is run 0 alone.
	App func(p Params, run int) *whodunit.App
}

// serveWebApp builds the open-loop two-tier web app: a Poisson arrival
// process puts page requests on the request queue, web workers serve
// them against a db stage, forever. searchShift, when positive, is the
// virtual time at which the workload mix shifts from mostly-home to
// mostly-search — the injected regression of the serve-shift scenario.
// plan, when non-nil, is the fault plan the app runs under, and a retry
// policy with Attempts > 0 makes the web workers issue each db request
// under it (a timeout per try, later tries in "retry" frames) — together
// the degraded operation of the serve-crashy scenario.
func serveWebApp(name string, p Params, searchShift whodunit.Duration, plan *whodunit.FaultPlan, retry whodunit.RetryPolicy) *whodunit.App {
	opts := []whodunit.Option{
		whodunit.WithMode(p.Mode),
		whodunit.WithCores(2),
		whodunit.WithSeed(p.Seed),
	}
	if plan != nil {
		opts = append(opts, whodunit.WithFaults(plan))
	}
	app := whodunit.NewApp(name, opts...)
	web, db := app.Stage("web"), app.Stage("db")
	reqQ, dbQ := app.NewQueue("requests"), app.NewQueue("db-requests")

	// Page mix: mostly cheap home pages; after searchShift (if set) the
	// mix inverts to mostly expensive searches. The draw comes from the
	// arrival process's own RNG stream, so the request sequence is a pure
	// function of (seed, virtual time).
	pageRNG := vclock.NewRNG(p.Seed ^ 0x9e3779b97f4a7c15)
	page := func() string {
		searchProb := 0.2
		if searchShift > 0 && app.Sim().Now() >= vclock.Time(searchShift) {
			searchProb = 0.8
		}
		if pageRNG.Float64() < searchProb {
			return "search"
		}
		return "home"
	}
	app.Arrivals("requests", 15*whodunit.Millisecond, func(i int64) {
		reqQ.Put(page())
	})

	// dbReq routes the db's response back to the issuing web worker.
	type dbReq struct {
		page  string
		respQ *whodunit.Queue
	}
	serveFrame := map[string]string{"home": "serve_home", "search": "serve_search"}

	db.Go("db", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for {
			msg := dbQ.Get(th).(whodunit.Msg)
			db.Endpoint().Recv(pr, msg)
			req := msg.Data.(dbReq)
			func() {
				defer pr.Exit(pr.Enter("exec_query"))
				if req.page == "search" {
					defer pr.Exit(pr.Enter("sort_rows"))
					pr.Compute(30 * whodunit.Millisecond)
				} else {
					pr.Compute(3 * whodunit.Millisecond)
				}
				req.respQ.Put(db.Endpoint().Send(pr, nil))
			}()
		}
	})
	const webWorkers = 4
	for w := 0; w < webWorkers; w++ {
		respQ := app.NewQueue(fmt.Sprintf("responses-%d", w))
		web.Go(fmt.Sprintf("web-%d", w), func(th *whodunit.Thread, pr *whodunit.Probe) {
			for {
				pg := reqQ.Get(th).(string)
				func() {
					defer pr.Exit(pr.Enter(serveFrame[pg]))
					pr.Compute(whodunit.Millisecond)
					if retry.Attempts == 0 {
						dbQ.Put(web.Endpoint().Send(pr, dbReq{page: pg, respQ: respQ}))
						web.Endpoint().Recv(pr, respQ.Get(th).(whodunit.Msg))
						return
					}
					web.Retry(pr, retry, func(int) bool {
						// Marshalling cost per attempt: retried attempts
						// sample under the "retry" frame.
						pr.Compute(200 * whodunit.Microsecond)
						dbQ.Put(web.Endpoint().Send(pr, dbReq{page: pg, respQ: respQ}))
						resp, ok := respQ.GetTimeout(th, retry.Timeout)
						if ok {
							web.Endpoint().Recv(pr, resp.(whodunit.Msg))
						}
						return ok
					})
				}()
			}
		})
	}
	return app
}

// serveCrashyApp builds the degraded-operation variant of the web app:
// the db-request queue drops ~12% of its messages (web workers retry
// under a timeout, so the drops surface as "retry" frames in the web
// CCT), and run 0 additionally dies from an injected failure at t=5s —
// the supervised server rebuilds through App and recovers.
func serveCrashyApp(name string, p Params, run int) *whodunit.App {
	plan := &whodunit.FaultPlan{
		Seed:     p.Seed,
		Messages: []whodunit.MessageFault{{Queue: "db-requests", Drop: 0.12}},
	}
	if run == 0 {
		plan.Failures = []whodunit.Fail{{
			At:  whodunit.Time(5 * whodunit.Second),
			Msg: "injected tier panic (run 0)",
		}}
	}
	// The retry timeout sits far above the worst-case db backlog (4
	// blocked workers x 30ms searches), so a timeout always means the
	// request was dropped — never a late response that would desync the
	// per-worker response queue.
	return serveWebApp(name, p, 0, plan, whodunit.RetryPolicy{
		Attempts: 3,
		Timeout:  200 * whodunit.Millisecond,
		Backoff:  5 * whodunit.Millisecond,
	})
}

// serveAll is the serving corpus, in golden-regeneration order.
var serveAll = []ServeScenario{
	{
		Name:      "serve-web",
		About:     "open-loop two-tier web app, steady 80/20 home/search mix",
		Defaults:  Params{Seed: 11, Mode: whodunit.ModeWhodunit},
		Window:    2 * whodunit.Second,
		Threshold: 400,
		App: func(p Params, _ int) *whodunit.App {
			return serveWebApp("serve-web", p, 0, nil, whodunit.RetryPolicy{})
		},
	},
	{
		Name:      "serve-shift",
		About:     "serve-web with the mix inverting to 80% search at t=6s (injected regression)",
		Defaults:  Params{Seed: 11, Mode: whodunit.ModeWhodunit},
		Window:    2 * whodunit.Second,
		Threshold: 400,
		App: func(p Params, _ int) *whodunit.App {
			return serveWebApp("serve-shift", p, 6*whodunit.Second, nil, whodunit.RetryPolicy{})
		},
	},
	{
		Name:      "serve-crashy",
		About:     "serve-web under faults: 12% db-request drops (retried), run 0 dies at t=5s and the supervisor recovers",
		Defaults:  Params{Seed: 11, Mode: whodunit.ModeWhodunit},
		Window:    2 * whodunit.Second,
		Threshold: -1,
		App: func(p Params, run int) *whodunit.App {
			return serveCrashyApp("serve-crashy", p, run)
		},
	},
	{
		Name:  "serve-mesh",
		About: "open-loop 4-shard mesh KV under a steady Zipfian cache-trace arrival stream",

		Defaults: Params{Seed: 11, Mode: whodunit.ModeWhodunit},
		Window:   2 * whodunit.Second,
		// Measured: steady-state window-to-window drift stays under ~40
		// samples; the cache-warmup taper peaks at ~117 on the db stage.
		Threshold: 200,
		App:       serveMeshApp,
	},
}

// ServeAll returns the serving corpus in its stable order.
func ServeAll() []ServeScenario {
	out := make([]ServeScenario, len(serveAll))
	copy(out, serveAll)
	return out
}

// ServeByName looks a serving scenario up.
func ServeByName(name string) (ServeScenario, bool) {
	for _, s := range serveAll {
		if s.Name == name {
			return s, true
		}
	}
	return ServeScenario{}, false
}

// ParseServeSpec resolves a serving run spec, name[:seed=N][,mode=M]:
// ParseSpec's grammar, without the trace keys.
func ParseServeSpec(spec string) (ServeScenario, error) {
	name, overrides, _ := strings.Cut(spec, ":")
	s, ok := ServeByName(name)
	if !ok {
		return ServeScenario{}, unknown(name)
	}
	if err := override(&s.Defaults, spec, overrides, false); err != nil {
		return ServeScenario{}, err
	}
	return s, nil
}

// Server serves the scenario at its parameters under cfg, supervised:
// cfg.MakeApp is the scenario's App.
func (s ServeScenario) Server(cfg whodunit.ServeConfig) *whodunit.Server {
	cfg.MakeApp = func(run int) *whodunit.App { return s.App(s.Defaults, run) }
	return whodunit.NewServer(nil, cfg)
}

// Windows runs the scenario at its defaults until n windows of the
// scenario's recommended length have retired and returns them in
// sequence order — the deterministic core the windowed goldens and the
// serving tests share. The final partial window (retired when the stop
// condition trips mid-window) is excluded.
func (s ServeScenario) Windows(n int) []*whodunit.Report {
	var out []*whodunit.Report
	for _, ev := range s.Events(n) {
		if ev.Report.Elapsed == s.Window && len(out) < n {
			out = append(out, ev.Report)
		}
	}
	return out
}

// Events runs the scenario at its defaults until n windows have retired
// (full and partial alike) and returns every retired WindowEvent in
// sequence order — the raw feed the degraded-operation goldens pin:
// unlike Windows it keeps the crash-partial windows and the
// degraded/recovered annotations. The restart backoff is wall-clock
// only, so the event sequence stays a pure function of the seed.
func (s ServeScenario) Events(n int) []*whodunit.WindowEvent {
	srv := s.Server(whodunit.ServeConfig{
		Window:         s.Window,
		Retain:         n + 1,
		Threshold:      -1,
		MaxWindows:     n,
		RestartBackoff: time.Millisecond,
	})
	srv.Run()
	var out []*whodunit.WindowEvent
	for _, kv := range srv.Ring().Entries() {
		out = append(out, kv.V)
	}
	return out
}
