package mesh_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"whodunit"
	"whodunit/internal/mesh"
)

// runChain drives n spaced-out requests through a
// frontend → proxy(mode) → backend chain and returns the mean
// round-trip latency and the report.
func runChain(t *testing.T, mode mesh.Mode, n int) (whodunit.Duration, *whodunit.Report) {
	t.Helper()
	app := whodunit.NewApp("chain", whodunit.WithMode(whodunit.ModeWhodunit), whodunit.WithSeed(1))
	topo := mesh.New(app)
	backend := topo.Service("backend", 1, func(c *mesh.Call) {
		c.Compute(2 * whodunit.Millisecond)
		c.Req().RespSize = 8 << 10
	})
	// Header cost sized so even the streaming proxy accumulates well
	// past the 1.5ms sampling interval and shows up in the graph.
	costs := mesh.ProxyCosts{Header: 600 * whodunit.Microsecond, PerKB: 3 * whodunit.Microsecond}
	proxy := topo.ProxyWith("proxy", mode, 1, mesh.To(backend), costs)
	completed, totalLat := 0, whodunit.Duration(0)
	call := func(c *mesh.Call) { c.Invoke(proxy) }
	front := topo.Service("frontend", 1, func(c *mesh.Call) {
		c.Compute(whodunit.Millisecond)
		c.Then(call)
	})
	front.OnComplete = func(req *mesh.Request, now whodunit.Time) {
		completed++
		totalLat += now.Sub(req.Start)
	}
	sim := app.Sim()
	for i := 0; i < n; i++ {
		req := &mesh.Request{Op: "get", Key: fmt.Sprintf("k%d", i), Size: 16 << 10}
		sim.At(whodunit.Time(whodunit.Duration(i)*10*whodunit.Millisecond), func() { front.Inject(req) })
	}
	rep := app.RunUntil(func() bool { return completed >= n })
	if completed != n {
		t.Fatalf("completed %d of %d requests", completed, n)
	}
	return totalLat / whodunit.Duration(n), rep
}

// TestProxyModesChangeLatency pins the queue-behavior semantics of the
// three execution modes: streaming forwards without byte costs,
// streaming-with-buffering adds only its response-leg copy to latency
// (the request-leg copy overlaps the backend), and full-buffering
// store-and-forwards both legs — strictly the slowest.
func TestProxyModesChangeLatency(t *testing.T) {
	latS, repS := runChain(t, mesh.Streaming, 20)
	latSWB, _ := runChain(t, mesh.StreamingWithBuffering, 20)
	latFB, repFB := runChain(t, mesh.FullBuffering, 20)
	if !(latS < latSWB && latSWB < latFB) {
		t.Fatalf("latency ordering violated: streaming %v, streaming+buffering %v, full-buffering %v",
			latS, latSWB, latFB)
	}
	// The buffering proxy also charges more CPU on its own stage.
	proxySamples := func(rep *whodunit.Report) int64 {
		for _, sr := range rep.Stages {
			if sr.Stage == "proxy" {
				return sr.Samples
			}
		}
		t.Fatal("no proxy stage in report")
		return 0
	}
	if s, fb := proxySamples(repS), proxySamples(repFB); fb <= s {
		t.Fatalf("full-buffering proxy charged %d samples, streaming %d; buffering should cost more CPU", fb, s)
	}
	if len(repS.Stages) != 3 || len(repFB.Stages) != 3 {
		t.Fatalf("expected 3 stages, got %d and %d", len(repS.Stages), len(repFB.Stages))
	}
}

// TestMeshDeterministic: two identical mesh runs render bit-identically.
func TestMeshDeterministic(t *testing.T) {
	_, repA := runChain(t, mesh.StreamingWithBuffering, 15)
	_, repB := runChain(t, mesh.StreamingWithBuffering, 15)
	var a, b bytes.Buffer
	if err := repA.JSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := repB.JSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical mesh runs render differently")
	}
}

// TestMeshStitchesCompleteGraph: the chain's transaction graph links
// all three tiers with no severed edges.
func TestMeshStitchesCompleteGraph(t *testing.T) {
	_, rep := runChain(t, mesh.Streaming, 10)
	if rep.Graph == nil {
		t.Fatal("no stitched graph")
	}
	stages := map[string]bool{}
	for _, n := range rep.Graph.Nodes {
		stages[n.Stage] = true
	}
	for _, want := range []string{"frontend", "proxy", "backend"} {
		if !stages[want] {
			t.Errorf("stage %s missing from the stitched graph", want)
		}
	}
	if len(rep.Graph.Missing) != 0 {
		t.Errorf("complete mesh stitched with missing stages: %v", rep.Graph.Missing)
	}
	if stages["(missing)"] {
		t.Error("severed edges in a complete mesh graph")
	}
}

// TestInvokeRetrySurvivesDrops: a drop-fault plan on the backend's
// input queue loses requests; InvokeRetry re-sends them in Stage.Retry's
// shape and every request still completes. The retried attempts run
// inside a "retry" probe frame, which the instrumented mode's call
// counts put in the frontend's CCT (no CPU is charged inside the frame,
// so the sampling modes have nothing to record there).
func TestInvokeRetrySurvivesDrops(t *testing.T) {
	const n = 40
	for _, mode := range []whodunit.Mode{whodunit.ModeWhodunit, whodunit.ModeInstrumented} {
		plan := &whodunit.FaultPlan{
			Seed:     7,
			Messages: []whodunit.MessageFault{{Queue: "backend-in", Drop: 0.2}},
		}
		app := whodunit.NewApp("retrychain",
			whodunit.WithMode(mode),
			whodunit.WithSeed(1),
			whodunit.WithFaults(plan))
		topo := mesh.New(app)
		backend := topo.Service("backend", 1, func(c *mesh.Call) {
			c.Compute(whodunit.Millisecond)
			c.Req().RespSize = 128
		})
		pol := whodunit.RetryPolicy{
			Attempts: 6,
			Timeout:  100 * whodunit.Millisecond,
			Backoff:  whodunit.Millisecond,
		}
		completed, failed := 0, 0
		outcome := func(c *mesh.Call) {
			if !c.Delivered() {
				failed++
			}
		}
		front := topo.Service("frontend", 1, func(c *mesh.Call) {
			c.InvokeRetry(backend, pol)
			c.Then(outcome)
		})
		front.OnComplete = func(*mesh.Request, whodunit.Time) { completed++ }
		sim := app.Sim()
		for i := 0; i < n; i++ {
			req := &mesh.Request{Op: "get", Key: fmt.Sprintf("k%d", i), Size: 256}
			sim.At(whodunit.Time(whodunit.Duration(i)*5*whodunit.Millisecond), func() { front.Inject(req) })
		}
		rep := app.RunUntil(func() bool { return completed >= n })
		if completed != n || failed != 0 {
			t.Fatalf("%v: completed %d/%d, %d gave up", mode, completed, n, failed)
		}
		if rep.Faults == nil || rep.Faults.Dropped == 0 {
			t.Fatalf("%v: the fault plan dropped nothing: %+v", mode, rep.Faults)
		}
		if mode != whodunit.ModeInstrumented {
			continue
		}
		foundRetry := false
		for _, td := range rep.StageNamed("frontend").Dump.Trees {
			for _, rec := range td.Records {
				for _, frame := range rec.Path {
					if frame == "retry" {
						foundRetry = true
					}
				}
			}
		}
		if !foundRetry {
			t.Fatal("no retry frame in the frontend CCT; the retried attempts left no transaction trace")
		}
	}
}

// TestMeshWorkerRespawnsClean: a proxy killed between Forward and Await
// (inside its request-leg copy) restarts with no memory of the request
// it died in. The worker's Call outlives the thread, so anything
// per-request it kept would break the respawn's first request.
func TestMeshWorkerRespawnsClean(t *testing.T) {
	plan := &whodunit.FaultPlan{Crashes: []whodunit.StageCrash{{
		Stage:        "proxy",
		At:           whodunit.Time(70 * whodunit.Microsecond),
		RestartAfter: 20 * whodunit.Millisecond,
	}}}
	app := whodunit.NewApp("respawn",
		whodunit.WithMode(whodunit.ModeWhodunit),
		whodunit.WithSeed(1),
		whodunit.WithFaults(plan))
	topo := mesh.New(app)
	backend := topo.Service("backend", 1, func(c *mesh.Call) { c.Compute(5 * whodunit.Millisecond) })
	proxy := topo.Proxy("proxy", mesh.StreamingWithBuffering, 1, mesh.To(backend))
	front := topo.Service("frontend", 4, func(c *mesh.Call) { c.Invoke(proxy) })
	completed := 0
	front.OnComplete = func(*mesh.Request, whodunit.Time) { completed++ }
	const n = 6
	sim := app.Sim()
	for i := 0; i < n; i++ {
		req := &mesh.Request{Op: "get", Key: fmt.Sprintf("k%d", i), Size: 64 << 10}
		sim.At(whodunit.Time(whodunit.Duration(i)*30*whodunit.Millisecond), func() { front.Inject(req) })
	}
	rep := app.RunFor(whodunit.Second)
	if c := sim.Crashed(); c != nil {
		t.Fatalf("the restarted proxy crashed the run: %v", c)
	}
	// The request in the proxy at the crash is lost with it; the rest
	// go through the restarted worker.
	if completed != n-1 {
		t.Fatalf("completed %d requests, want %d", completed, n-1)
	}
	if f := rep.Faults; f == nil || f.Crashes != 1 || f.Restarts != 1 {
		t.Fatalf("fault ledger %+v, want 1 crash and 1 restart", f)
	}
}

// TestMeshSteadyStateZeroAllocs: once warm, a request's whole round
// trip through frontend → proxy → backend allocates nothing — the
// segments and the workers' continuations are bound once at build time.
func TestMeshSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	app := whodunit.NewApp("steady", whodunit.WithMode(whodunit.ModeWhodunit), whodunit.WithSeed(1))
	topo := mesh.New(app)
	backend := topo.Service("backend", 1, func(c *mesh.Call) {
		c.Compute(2 * whodunit.Millisecond)
		c.Req().RespSize = 8 << 10
	})
	proxy := topo.Proxy("proxy", mesh.FullBuffering, 1, mesh.To(backend))
	respond := func(c *mesh.Call) { c.Compute(100 * whodunit.Microsecond) }
	call := func(c *mesh.Call) {
		c.Invoke(proxy)
		c.Then(respond)
	}
	front := topo.Service("frontend", 1, func(c *mesh.Call) {
		c.Compute(whodunit.Millisecond)
		c.Then(call)
	})
	completed, target := 0, 0
	front.OnComplete = func(*mesh.Request, whodunit.Time) { completed++ }
	req := &mesh.Request{Op: "get", Key: "k", Size: 16 << 10}
	sim := app.Sim()
	stop := func() bool { return completed >= target }
	round := func() {
		target++
		front.Inject(req)
		sim.RunUntil(stop)
	}
	for i := 0; i < 2000; i++ { // warm: heap, waiter lists, CCT nodes, context tables
		round()
	}
	if avg := testing.AllocsPerRun(500, round); avg != 0 {
		t.Fatalf("%v allocations per steady-state request, want 0", avg)
	}
	if completed != target {
		t.Fatalf("completed %d of %d", completed, target)
	}
}

// TestTopologyPanics pins the construction-time misuse checks.
func TestTopologyPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	app := whodunit.NewApp("panics")
	topo := mesh.New(app)
	h := func(*mesh.Call) {}
	a := topo.Service("a", 1, h)
	mustPanic("duplicate name", func() { topo.Service("a", 1, h) })
	mustPanic("zero workers", func() { topo.Service("b", 0, h) })
	mustPanic("nil handler", func() { topo.Service("c", 1, nil) })
	mustPanic("nil router", func() { topo.Proxy("d", mesh.Streaming, 1, nil) })
	mustPanic("empty ring", func() { mesh.NewRing(4) })
	mustPanic("zero vnodes", func() { mesh.NewRing(0, a) })
}

// TestSegmentDisciplinePanics: a handler that breaks the segment
// contract crashes its worker the first time it runs, with a message
// naming the service.
func TestSegmentDisciplinePanics(t *testing.T) {
	cases := []struct {
		name    string
		handler func(backend *mesh.Service) mesh.Handler
		want    string
	}{
		{"two blocking calls", func(backend *mesh.Service) mesh.Handler {
			return func(c *mesh.Call) {
				c.Compute(whodunit.Millisecond)
				c.Invoke(backend)
			}
		}, "mesh: culprit handler made two blocking calls in one segment"},
		{"await with nothing in flight", func(*mesh.Service) mesh.Handler {
			return func(c *mesh.Call) { c.Await() }
		}, "mesh: culprit awaited with no call in flight"},
		{"forward twice", func(backend *mesh.Service) mesh.Handler {
			return func(c *mesh.Call) {
				c.Forward(backend)
				c.Forward(backend)
			}
		}, "mesh: culprit forwarded twice without Await"},
		{"finish with a call in flight", func(backend *mesh.Service) mesh.Handler {
			return func(c *mesh.Call) { c.Forward(backend) }
		}, "mesh: culprit handler returned with a downstream call still in flight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app := whodunit.NewApp("discipline")
			topo := mesh.New(app)
			backend := topo.Service("backend", 1, func(c *mesh.Call) { c.Compute(whodunit.Millisecond) })
			culprit := topo.Service("culprit", 1, tc.handler(backend))
			app.Sim().At(0, func() { culprit.Inject(&mesh.Request{Op: "get", Key: "k"}) })
			func() {
				defer func() { recover() }() // App.RunFor re-raises the crash
				app.RunFor(whodunit.Second)
			}()
			c := app.Sim().Crashed()
			if c == nil {
				t.Fatal("the run did not crash")
			}
			if msg := fmt.Sprint(c.Value); c.Thread != "culprit-0" || !strings.HasPrefix(msg, tc.want) {
				t.Fatalf("crash %q in thread %s, want %q... in culprit-0", msg, c.Thread, tc.want)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	cases := map[mesh.Mode]string{
		mesh.Streaming:              "streaming",
		mesh.StreamingWithBuffering: "streaming+buffering",
		mesh.FullBuffering:          "full-buffering",
		mesh.Mode(9):                "Mode(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
