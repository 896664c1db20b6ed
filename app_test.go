package whodunit_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"whodunit"
	"whodunit/internal/ipc"
	"whodunit/internal/profiler"
	"whodunit/internal/stitch"
	"whodunit/internal/vclock"
)

// runTwoStageWorkload drives the canonical web+db workload against the
// probes handed to it; shared between the App-API test and the manual
// facade path it is compared with.
func twoStageWorkload(sim *whodunit.Sim, reqQ, respQ *vclock.Queue,
	webEP, dbEP *whodunit.Endpoint, goWeb, goDB func(body func(*whodunit.Thread, *whodunit.Probe))) {
	goDB(func(th *whodunit.Thread, pr *whodunit.Probe) {
		for i := 0; i < 4; i++ {
			msg := th.Get(reqQ).(whodunit.Msg)
			dbEP.Recv(pr, msg)
			func() {
				defer pr.Exit(pr.Enter("exec_query"))
				if msg.Data == "search" {
					pr.Compute(30 * whodunit.Millisecond)
				} else {
					pr.Compute(3 * whodunit.Millisecond)
				}
				respQ.Put(dbEP.Send(pr, nil))
			}()
		}
	})
	goWeb(func(th *whodunit.Thread, pr *whodunit.Probe) {
		for i := 0; i < 2; i++ {
			for _, page := range []string{"home", "search"} {
				func() {
					defer pr.Exit(pr.Enter("serve_" + page))
					pr.Compute(whodunit.Millisecond)
					reqQ.Put(webEP.Send(pr, page))
					webEP.Recv(pr, th.Get(respQ).(whodunit.Msg))
				}()
			}
		}
	})
}

// TestAppTwoStageEndToEnd runs the same two-stage application once
// through the App runtime and once through the manual Sim + Profiler +
// DumpStage + Stitch dance, and checks that App.Run's automatically
// stitched graph matches the manual one node for node and edge for edge.
func TestAppTwoStageEndToEnd(t *testing.T) {
	// --- App path -------------------------------------------------
	app := whodunit.NewApp("shop", whodunit.WithMode(whodunit.ModeWhodunit), whodunit.WithCores(2))
	web, db := app.Stage("web"), app.Stage("db")
	reqQ, respQ := app.NewQueue("req").Raw(), app.NewQueue("resp").Raw()
	twoStageWorkload(app.Sim(), reqQ, respQ, web.Endpoint(), db.Endpoint(),
		func(body func(*whodunit.Thread, *whodunit.Probe)) { web.Go("web", body) },
		func(body func(*whodunit.Thread, *whodunit.Probe)) { db.Go("db", body) })
	rep := app.Run()

	if rep.App != "shop" || len(rep.Stages) != 2 {
		t.Fatalf("report header wrong: app=%q stages=%d", rep.App, len(rep.Stages))
	}
	if rep.Elapsed <= 0 {
		t.Fatal("report elapsed time not set")
	}
	if rep.TotalSamples() == 0 {
		t.Fatal("no samples in report")
	}
	dbRep := rep.StageNamed("db")
	if dbRep == nil {
		t.Fatal("db stage missing from report")
	}
	withSamples := 0
	for _, sh := range dbRep.Shares {
		if sh.Samples > 0 {
			withSamples++
		}
	}
	if withSamples != 2 {
		t.Fatalf("db contexts with samples = %d, want 2 (home and search)", withSamples)
	}

	// --- Manual facade path --------------------------------------
	s := vclock.New()
	cpu := s.NewCPU("cpu", 2)
	webProf := profiler.New("web", whodunit.ModeWhodunit)
	dbProf := profiler.New("db", whodunit.ModeWhodunit)
	webEP, dbEP := ipc.NewEndpoint("web"), ipc.NewEndpoint("db")
	mReqQ, mRespQ := s.NewQueue("req"), s.NewQueue("resp")
	twoStageWorkload(s, mReqQ, mRespQ, webEP, dbEP,
		func(body func(*whodunit.Thread, *whodunit.Probe)) {
			s.Go("web", func(th *whodunit.Thread) { body(th, webProf.NewProbe(th, cpu)) })
		},
		func(body func(*whodunit.Thread, *whodunit.Probe)) {
			s.Go("db", func(th *whodunit.Thread) { body(th, dbProf.NewProbe(th, cpu)) })
		})
	s.Run()
	s.Shutdown()
	manual := stitch.Build([]whodunit.StageDump{
		whodunit.DumpStage(webProf, webEP),
		whodunit.DumpStage(dbProf, dbEP),
	})

	// --- The graphs must agree -----------------------------------
	if len(rep.Graph.Nodes) != len(manual.Nodes) {
		t.Fatalf("auto-stitched nodes = %d, manual = %d", len(rep.Graph.Nodes), len(manual.Nodes))
	}
	if len(rep.Graph.Edges) != len(manual.Edges) {
		t.Fatalf("auto-stitched edges = %d, manual = %d", len(rep.Graph.Edges), len(manual.Edges))
	}
	for i, n := range rep.Graph.Nodes {
		m := manual.Nodes[i]
		if n.Stage != m.Stage || n.Label != m.Label || n.Total != m.Total {
			t.Errorf("node %d differs: app=(%s,%s,%d) manual=(%s,%s,%d)",
				i, n.Stage, n.Label, n.Total, m.Stage, m.Label, m.Total)
		}
	}
	for i, e := range rep.Graph.Edges {
		m := manual.Edges[i]
		if e != m {
			t.Errorf("edge %d differs: app=%+v manual=%+v", i, e, m)
		}
	}
	if len(rep.Graph.Edges) != 4 {
		t.Fatalf("stitched edges = %d, want 4 (2 request + 2 response)", len(rep.Graph.Edges))
	}

	var txt bytes.Buffer
	rep.Text(&txt)
	for _, want := range []string{"stage web", "stage db", "stitched transaction graph", "request"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("Text output missing %q", want)
		}
	}
	var dot bytes.Buffer
	rep.DOT(&dot)
	if !strings.Contains(dot.String(), "digraph whodunit") {
		t.Error("DOT output incomplete")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	app := whodunit.NewApp("shop", whodunit.WithMode(whodunit.ModeWhodunit))
	web, db := app.Stage("web"), app.Stage("db")
	reqQ, respQ := app.NewQueue("req").Raw(), app.NewQueue("resp").Raw()
	twoStageWorkload(app.Sim(), reqQ, respQ, web.Endpoint(), db.Endpoint(),
		func(body func(*whodunit.Thread, *whodunit.Probe)) { web.Go("web", body) },
		func(body func(*whodunit.Thread, *whodunit.Probe)) { db.Go("db", body) })
	rep := app.Run()

	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := whodunit.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != rep.App || back.Elapsed != rep.Elapsed {
		t.Fatalf("header mismatch after round trip: %q/%d vs %q/%d",
			back.App, back.Elapsed, rep.App, rep.Elapsed)
	}
	if len(back.Stages) != len(rep.Stages) {
		t.Fatalf("stage count after round trip = %d, want %d", len(back.Stages), len(rep.Stages))
	}
	for i := range rep.Stages {
		a, b := rep.Stages[i], back.Stages[i]
		if a.Stage != b.Stage || a.Mode != b.Mode || a.Samples != b.Samples || len(a.Shares) != len(b.Shares) {
			t.Errorf("stage %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// The graph is derived data: ReadReport must restitch it identically.
	if back.Graph == nil {
		t.Fatal("graph not restitched on decode")
	}
	if len(back.Graph.Nodes) != len(rep.Graph.Nodes) || len(back.Graph.Edges) != len(rep.Graph.Edges) {
		t.Fatalf("restitched graph %d/%d nodes/edges, want %d/%d",
			len(back.Graph.Nodes), len(back.Graph.Edges), len(rep.Graph.Nodes), len(rep.Graph.Edges))
	}
	for i, e := range back.Graph.Edges {
		if e != rep.Graph.Edges[i] {
			t.Errorf("restitched edge %d = %+v, want %+v", i, e, rep.Graph.Edges[i])
		}
	}
}

// TestRunAppsMatchesSerialRuns builds the same set of independent apps
// twice and checks that RunApps (across a deliberately oversized worker
// pool) returns reports bit-identical to running each app serially —
// parallel sweeps must be a pure wall-clock optimisation.
func TestRunAppsMatchesSerialRuns(t *testing.T) {
	build := func(name string, seed uint64) *whodunit.App {
		app := whodunit.NewApp(name, whodunit.WithMode(whodunit.ModeWhodunit), whodunit.WithSeed(seed))
		web, db := app.Stage("web"), app.Stage("db")
		reqQ, respQ := app.NewQueue("req").Raw(), app.NewQueue("resp").Raw()
		twoStageWorkload(app.Sim(), reqQ, respQ, web.Endpoint(), db.Endpoint(),
			func(body func(*whodunit.Thread, *whodunit.Probe)) { web.Go("web", body) },
			func(body func(*whodunit.Thread, *whodunit.Probe)) { db.Go("db", body) })
		return app
	}
	asJSON := func(rep *whodunit.Report) string {
		var buf bytes.Buffer
		if err := rep.JSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	const n = 4
	serial := make([]string, n)
	apps := make([]*whodunit.App, n)
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		serial[i] = asJSON(build(name, uint64(i)).Run())
		apps[i] = build(name, uint64(i))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for i, rep := range whodunit.RunApps(apps...) {
		if got := asJSON(rep); got != serial[i] {
			t.Errorf("app %d report differs between serial Run and RunApps:\n%s\nvs\n%s", i, serial[i], got)
		}
	}
}

// TestAppEventLoopStage checks the Stage event-loop sugar: BindLoop
// routes each handler's samples into the handler-sequence context.
func TestAppEventLoopStage(t *testing.T) {
	app := whodunit.NewApp("proxy", whodunit.WithCores(1))
	st := app.Stage("proxy")
	loop := st.EventLoop()
	ready := app.NewQueue("ready")

	served := 0
	var hWrite, hRead *whodunit.EventHandler
	hWrite = &whodunit.EventHandler{Name: "write", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		served++
	}}
	hRead = &whodunit.EventHandler{Name: "read", Fn: func(l *whodunit.EventLoop, ev *whodunit.Event) {
		ready.Put(l.NewEvent(hWrite, nil))
	}}
	for i := 0; i < 3; i++ {
		ready.Put(&whodunit.Event{Handler: hRead})
	}
	var seen []string
	st.Go("loop", func(th *whodunit.Thread, pr *whodunit.Probe) {
		st.BindLoop(pr)
		for served < 3 {
			loop.Dispatch(ready.Get(th).(*whodunit.Event))
			seen = append(seen, pr.Txn().Label())
		}
	})
	app.Run()
	if len(seen) != 6 {
		t.Fatalf("dispatches = %d, want 6", len(seen))
	}
	want := "proxy@read | proxy@write"
	found := false
	for _, s := range seen {
		if s == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("handler-sequence context %q not seen in %v", want, seen)
	}
}

// TestAppSEDAStage checks the Stage SEDA sugar: Worker-bound probes land
// samples in stage-sequence contexts and Inject feeds the pipeline.
func TestAppSEDAStage(t *testing.T) {
	app := whodunit.NewApp("pipe", whodunit.WithCores(1))
	st := app.Stage("pipe")
	qA, qB := app.NewQueue("a"), app.NewQueue("b")
	sA, sB := st.SEDAStage("A", qA), st.SEDAStage("B", qB)

	done := 0
	var ctxts []string
	st.Go("A", func(th *whodunit.Thread, pr *whodunit.Probe) {
		w := st.Worker(sA, pr)
		for {
			w.Begin(qA.Get(th).(*whodunit.SEDAElem))
			pr.Compute(whodunit.Millisecond)
			w.Enqueue(sB, nil)
		}
	})
	st.Go("B", func(th *whodunit.Thread, pr *whodunit.Probe) {
		w := st.Worker(sB, pr)
		for {
			w.Begin(qB.Get(th).(*whodunit.SEDAElem))
			ctxts = append(ctxts, pr.Txn().Label())
			done++
		}
	})
	for i := 0; i < 3; i++ {
		st.Inject(sA, i)
	}
	app.RunUntil(func() bool { return done >= 3 })
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	for _, c := range ctxts {
		if c != "pipe#A | pipe#B" {
			t.Fatalf("stage-sequence context = %q, want pipe#A | pipe#B", c)
		}
	}
}

// TestAppCrosstalk checks WithCrosstalk: locks created through the App
// feed the monitor and the matrix lands in the report.
func TestAppCrosstalk(t *testing.T) {
	app := whodunit.NewApp("ct",
		whodunit.WithCores(2),
		whodunit.WithCrosstalk(func(tc whodunit.TxnCtxt) string { return tc.Label() }))
	st := app.Stage("ct")
	lock := app.NewLock("shared")

	spin := func(name string, hold whodunit.Duration) {
		st.Go(name, func(th *whodunit.Thread, pr *whodunit.Probe) {
			defer pr.Exit(pr.Enter(name))
			for i := 0; i < 3; i++ {
				th.Lock(lock, whodunit.Exclusive)
				pr.Compute(hold)
				th.Sleep(hold)
				th.Unlock(lock)
			}
		})
	}
	spin("writer_a", 5*whodunit.Millisecond)
	spin("writer_b", 7*whodunit.Millisecond)
	rep := app.Run()
	if len(rep.Crosstalk) == 0 {
		t.Fatal("no crosstalk pairs in report despite contended lock")
	}
}

// TestStageDefaultEndpointDistinct guards against the default endpoint
// aliasing a connection's endpoint: queue traffic and wire traffic must
// keep separate sent-synopsis tables.
func TestStageDefaultEndpointDistinct(t *testing.T) {
	app := whodunit.NewApp("x")
	st := app.Stage("web")
	conn := st.Conn(nil)
	if st.Endpoint() == conn.E {
		t.Fatal("default endpoint aliases the connection endpoint")
	}
	if st.Endpoint() != st.Endpoint() {
		t.Fatal("default endpoint is not stable")
	}
}

func TestStageRedeclarePanics(t *testing.T) {
	app := whodunit.NewApp("x")
	app.Stage("web")
	if got := app.Stage("web"); got == nil {
		t.Fatal("fetching an existing stage failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a stage with options did not panic")
		}
	}()
	app.Stage("web", whodunit.StageCPU(4))
}
