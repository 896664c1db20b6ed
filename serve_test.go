package whodunit_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whodunit"
)

// serveApp builds a small open-loop two-stage app suitable for driving a
// Server in tests: Poisson request arrivals, a web worker that calls
// into a db worker, everything on the virtual clock.
func serveApp(seed uint64, opts ...whodunit.Option) *whodunit.App {
	opts = append([]whodunit.Option{
		whodunit.WithMode(whodunit.ModeWhodunit),
		whodunit.WithCores(2),
		whodunit.WithSeed(seed),
	}, opts...)
	app := whodunit.NewApp("serve-test", opts...)
	web, db := app.Stage("web"), app.Stage("db")
	reqQ, dbQ := app.NewQueue("requests"), app.NewQueue("db-requests")
	respQ := app.NewQueue("db-responses")

	app.Arrivals("requests", 10*whodunit.Millisecond, func(i int64) {
		reqQ.Put(i)
	})
	db.Go("db", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for {
			msg := dbQ.Get(th).(whodunit.Msg)
			db.Endpoint().Recv(pr, msg)
			func() {
				defer pr.Exit(pr.Enter("exec_query"))
				pr.Compute(2 * whodunit.Millisecond)
				respQ.Put(db.Endpoint().Send(pr, nil))
			}()
		}
	})
	web.Go("web", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for {
			reqQ.Get(th)
			func() {
				defer pr.Exit(pr.Enter("serve_page"))
				pr.Compute(whodunit.Millisecond)
				dbQ.Put(web.Endpoint().Send(pr, nil))
				web.Endpoint().Recv(pr, respQ.Get(th).(whodunit.Msg))
			}()
		}
	})
	return app
}

// runServer runs a bounded server to completion and returns it.
func runServer(t *testing.T, cfg whodunit.ServeConfig) *whodunit.Server {
	t.Helper()
	srv := whodunit.NewServer(serveApp(7), cfg)
	srv.Run()
	return srv
}

func get(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestServeReportEndpoint(t *testing.T) {
	srv := runServer(t, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 4,
	})
	h := srv.Handler()

	code, body := get(t, h, "/report?window=0")
	if code != http.StatusOK {
		t.Fatalf("/report?window=0: %d %s", code, body)
	}
	var rep whodunit.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("window 0 not JSON: %v", err)
	}
	if rep.Window == nil || rep.Window.Seq != 0 {
		t.Fatalf("window 0 metadata: %+v", rep.Window)
	}

	// Default = latest retired window.
	code, body = get(t, h, "/report")
	if code != http.StatusOK {
		t.Fatalf("/report: %d", code)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Window.Seq != 3 {
		t.Fatalf("latest window seq %d, want 3", rep.Window.Seq)
	}

	// window=live on a finished run falls back to the latest window.
	code, liveBody := get(t, h, "/report?window=live")
	if code != http.StatusOK || liveBody != body {
		t.Fatalf("finished-run live report: %d, equal=%v", code, liveBody == body)
	}

	for _, format := range []string{"text", "folded"} {
		code, body = get(t, h, "/report?format="+format)
		if code != http.StatusOK || body == "" {
			t.Fatalf("format=%s: %d %q", format, code, body)
		}
	}
	if code, body = get(t, h, "/report?format=xml"); code != http.StatusBadRequest {
		t.Fatalf("format=xml: %d %s", code, body)
	}
	if code, body = get(t, h, "/report?window=nope"); code != http.StatusBadRequest {
		t.Fatalf("window=nope: %d %s", code, body)
	}
	if code, body = get(t, h, "/report?window=99"); code != http.StatusNotFound {
		t.Fatalf("window=99: %d %s", code, body)
	}
}

// TestServeLiveMatchesRetired is the acceptance check for the
// snapshot-while-running path: a live /report fetched mid-run, at the
// virtual instant a window retires, is bit-identical to that retired
// window's /report (modulo the live report having no diff context).
func TestServeLiveMatchesRetired(t *testing.T) {
	app := serveApp(7)
	srv := whodunit.NewServer(app, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 3,
	})
	// Read the live window from scheduler context at the exact end of
	// window 1 — before the server's tick retires it. The retired
	// window-1 report must match it bit for bit: copy-on-retire and the
	// live read must agree on every sample.
	var live *whodunit.Report
	app.Sim().At(whodunit.Time(200*whodunit.Millisecond), func() {
		live = whodunit.LiveWindow(srv)
	})
	srv.Run()
	assertLiveIsRetired(t, srv, live, 1)
}

// TestServeLiveSeqAfterRestart reads the live window of a supervised
// server's second run: it must carry the sequence number it retires
// with, not its index within the run. Run 0 retires windows 0 and 1 and
// dies mid-window-2, so run 1's first window, read at its end, is 3.
func TestServeLiveSeqAfterRestart(t *testing.T) {
	var srv *whodunit.Server
	var live *whodunit.Report
	srv = whodunit.NewServer(nil, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 5,
		RestartBackoff: time.Millisecond,
		MakeApp: func(run int) *whodunit.App {
			if run == 0 {
				return serveApp(7, whodunit.WithFaults(failAt(250*whodunit.Millisecond)))
			}
			app := serveApp(7)
			app.Sim().At(whodunit.Time(100*whodunit.Millisecond), func() {
				live = whodunit.LiveWindow(srv)
			})
			return app
		},
	})
	srv.Run()
	if srv.Restarts() != 1 {
		t.Fatalf("restarts=%d, want 1", srv.Restarts())
	}
	if live == nil {
		t.Fatal("run 1's live read never ran")
	}
	if live.Window.Seq != 3 {
		t.Fatalf("live window after the restart: %+v, want seq 3", live.Window)
	}
	assertLiveIsRetired(t, srv, live, 3)
}

// assertLiveIsRetired checks that the live report equals retired window
// seq in JSON, byte for byte.
func assertLiveIsRetired(t *testing.T, srv *whodunit.Server, live *whodunit.Report, seq int64) {
	t.Helper()
	kv, ok := srv.Ring().Get(seq)
	if !ok {
		t.Fatalf("window %d not retained", seq)
	}
	var a, b bytes.Buffer
	if err := live.JSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := kv.V.Report.JSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("live read at the end of window %d differs from the retired window:\nlive:    %s\nretired: %s",
			seq, a.String(), b.String())
	}
}

func TestServeWindowsEndpoint(t *testing.T) {
	srv := runServer(t, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 3, Retain: 2,
	})
	code, body := get(t, srv.Handler(), "/windows")
	if code != http.StatusOK {
		t.Fatalf("/windows: %d", code)
	}
	var idx struct {
		App       string `json:"app"`
		Retired   int64  `json:"retired"`
		Retain    int    `json:"retain"`
		Threshold int64  `json:"threshold"`
		Windows   []struct {
			Seq     int64 `json:"seq"`
			Samples int64 `json:"samples"`
		} `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.App != "serve-test" || idx.Retired != 3 || idx.Retain != 2 || idx.Threshold != -1 {
		t.Fatalf("index header: %+v", idx)
	}
	if len(idx.Windows) != 2 || idx.Windows[0].Seq != 1 || idx.Windows[1].Seq != 2 {
		t.Fatalf("retained windows: %+v (want seqs 1,2 — 0 evicted)", idx.Windows)
	}
	for _, w := range idx.Windows {
		if w.Samples == 0 {
			t.Fatalf("window %d has no samples", w.Seq)
		}
	}
}

func TestServeDiffEndpoint(t *testing.T) {
	srv := runServer(t, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 3,
	})
	h := srv.Handler()

	code, body := get(t, h, "/diff?a=0&b=1")
	if code != http.StatusOK {
		t.Fatalf("/diff: %d %s", code, body)
	}
	var d whodunit.ReportDiff
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.WindowA == nil || d.WindowB == nil || d.WindowA.Seq != 0 || d.WindowB.Seq != 1 {
		t.Fatalf("diff window provenance: %+v %+v", d.WindowA, d.WindowB)
	}

	code, body = get(t, h, "/diff?a=0&b=1&format=text")
	if code != http.StatusOK || !strings.Contains(body, "window 0") {
		t.Fatalf("text diff: %d %q", code, body)
	}
	if code, _ = get(t, h, "/diff?a=0"); code != http.StatusBadRequest {
		t.Fatalf("missing b: %d", code)
	}
	if code, _ = get(t, h, "/diff?a=x&b=1"); code != http.StatusBadRequest {
		t.Fatalf("bad a: %d", code)
	}
	if code, _ = get(t, h, "/diff?a=0&b=42"); code != http.StatusNotFound {
		t.Fatalf("unretained b: %d", code)
	}
	if code, _ = get(t, h, "/diff?a=0&b=1&format=folded"); code != http.StatusBadRequest {
		t.Fatalf("bad format: %d", code)
	}
}

func TestServeHealthzAndAlerts(t *testing.T) {
	// Threshold 0 alerts on any adjacent divergence; Poisson arrivals
	// guarantee adjacent windows differ.
	srv := runServer(t, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: 0, MaxWindows: 4,
	})
	if srv.AlertsTotal() == 0 || !srv.AlertActive() {
		t.Fatalf("threshold 0 should alert: total=%d active=%v", srv.AlertsTotal(), srv.AlertActive())
	}
	code, body := get(t, srv.Handler(), "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with active alert: %d", code)
	}
	for _, line := range []string{"whodunit_up 0", "whodunit_windows_retired 4", "whodunit_alert_active 1"} {
		if !strings.Contains(body, line) {
			t.Fatalf("healthz missing %q:\n%s", line, body)
		}
	}

	// A generous threshold never alerts and healthz reports 200.
	srv = runServer(t, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: 1 << 40, MaxWindows: 4,
	})
	if srv.AlertsTotal() != 0 || srv.AlertActive() {
		t.Fatalf("huge threshold alerted: total=%d", srv.AlertsTotal())
	}
	if code, _ := get(t, srv.Handler(), "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz without alert: %d", code)
	}
}

// TestServeStream subscribes to /stream while the run is in flight and
// checks the SSE framing: one window event per retirement, alert events
// when the threshold trips, and a terminating end event.
func TestServeStream(t *testing.T) {
	app := serveApp(7)
	srv := whodunit.NewServer(app, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: 0, MaxWindows: 3,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	go srv.Run()

	var windows, alerts, ends int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "event: window":
			windows++
		case line == "event: alert":
			alerts++
		case line == "event: end":
			ends++
		case strings.HasPrefix(line, "data: {\"report\""):
			var ev whodunit.WindowEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("window event payload: %v", err)
			}
		}
		if ends > 0 {
			break
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	<-srv.Done()
	if windows != 3 {
		t.Fatalf("streamed %d window events, want 3", windows)
	}
	// Threshold 0 alerts on windows 1 and 2 (window 0 has no predecessor).
	if alerts != 2 {
		t.Fatalf("streamed %d alert events, want 2", alerts)
	}
}

// TestServeStopDrainsFinalWindow stops a free-running server mid-window
// and checks the in-progress window retires as a final partial one.
func TestServeStopDrainsFinalWindow(t *testing.T) {
	app := serveApp(7)
	srv := whodunit.NewServer(app, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1,
	})
	// Trip Stop from scheduler context mid-window-2.
	app.Sim().At(whodunit.Time(250*whodunit.Millisecond), func() { srv.Stop() })
	srv.Run()
	<-srv.Done()

	kv, ok := srv.Ring().Latest()
	if !ok {
		t.Fatal("no windows retired")
	}
	rep := kv.V.Report
	if rep.Window.Seq != 2 {
		t.Fatalf("final window seq %d, want 2", rep.Window.Seq)
	}
	if rep.Elapsed >= 100*whodunit.Millisecond || rep.Elapsed <= 0 {
		t.Fatalf("final partial window elapsed %v, want in (0, 100ms)", rep.Elapsed)
	}
	if kv.V.Diff() != nil || kv.V.Against() != nil {
		t.Fatalf("partial window must not auto-diff, got %+v against %+v", kv.V.Diff(), kv.V.Against())
	}
}

// TestServeLiveReadMidRun issues a live /report from another goroutine
// while a free-running server retires windows: the stop predicate must
// notice the enqueued read and answer it from the running simulation
// (the window in progress, not a retired one), and windows must keep
// retiring afterwards.
func TestServeLiveReadMidRun(t *testing.T) {
	srv := whodunit.NewServer(serveApp(11), whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1,
	})
	feed, cancel := srv.Ring().Subscribe(1)
	defer cancel()
	go srv.Run()
	defer func() {
		srv.Stop()
		<-srv.Done()
	}()
	timeout := time.After(30 * time.Second)
	waitRetired := func(n int64) {
		for srv.Ring().Total() < n {
			select {
			case _, ok := <-feed:
				if !ok {
					t.Fatalf("run finished after %d windows, want it endless", srv.Ring().Total())
				}
			case <-timeout:
				t.Fatalf("%d windows retired, want %d", srv.Ring().Total(), n)
			}
		}
	}
	waitRetired(2)
	retired := srv.Ring().Total()
	type answer struct {
		code int
		body string
	}
	got := make(chan answer, 1)
	go func() {
		code, body := get(t, srv.Handler(), "/report?window=live")
		got <- answer{code, body}
	}()
	var a answer
	select {
	case a = <-got:
	case <-timeout:
		t.Fatal("live read issued mid-run was not answered")
	}
	if a.code != http.StatusOK {
		t.Fatalf("live /report: %d %s", a.code, a.body)
	}
	var rep whodunit.Report
	if err := json.Unmarshal([]byte(a.body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Window == nil || rep.Window.Seq < retired {
		t.Fatalf("live /report window %+v, want the one in progress (seq >= %d)", rep.Window, retired)
	}
	waitRetired(rep.Window.Seq + 2)
}

// failAt builds a fault plan whose single injected failure kills the
// simulation at the given virtual time.
func failAt(at whodunit.Duration) *whodunit.FaultPlan {
	return &whodunit.FaultPlan{
		Failures: []whodunit.Fail{{At: whodunit.Time(at), Msg: "injected"}},
	}
}

// TestServeSupervisedRecovers drives the supervision loop through its
// happy recovery path: run 0 dies from an injected failure mid-window-2,
// the factory rebuilds a healthy app, and the feed presents one dense
// window series across the restart with the degraded/recovered lifecycle
// annotated on it.
func TestServeSupervisedRecovers(t *testing.T) {
	srv := whodunit.NewServer(nil, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 6,
		RestartBackoff: time.Millisecond,
		MakeApp: func(run int) *whodunit.App {
			if run == 0 {
				return serveApp(7, whodunit.WithFaults(failAt(250*whodunit.Millisecond)))
			}
			return serveApp(7)
		},
	})
	srv.Run() // must not panic
	<-srv.Done()

	if srv.Restarts() != 1 || srv.GaveUp() || srv.Degraded() {
		t.Fatalf("restarts=%d gaveUp=%v degraded=%v, want 1/false/false",
			srv.Restarts(), srv.GaveUp(), srv.Degraded())
	}
	entries := srv.Ring().Entries()
	if len(entries) != 6 {
		t.Fatalf("retired %d windows, want 6", len(entries))
	}
	for i, kv := range entries {
		if kv.Meta.Seq != int64(i) {
			t.Fatalf("window %d has seq %d; series not dense across the restart", i, kv.Meta.Seq)
		}
	}
	// Windows 0 and 1 are healthy full windows from run 0; window 2 is
	// run 0's partial residue at the crash instant.
	for _, kv := range entries[:2] {
		if kv.V.Degraded || kv.V.Restarts != 0 {
			t.Fatalf("pre-crash window %d marked degraded: %+v", kv.Meta.Seq, kv.V)
		}
	}
	if e := entries[2].V.Report.Elapsed; e != 50*whodunit.Millisecond {
		t.Fatalf("crash-partial window elapsed %v, want 50ms", e)
	}
	// Window 3 is run 1's first full window: degraded, and the recovery
	// point.
	if ev := entries[3].V; !ev.Degraded || !ev.Recovered || ev.Restarts != 1 {
		t.Fatalf("first post-restart window: %+v, want degraded+recovered with 1 restart", ev)
	}
	// Windows 4 and 5 are back to healthy (though the restart count
	// stays visible).
	for _, kv := range entries[4:] {
		if kv.V.Degraded || kv.V.Recovered || kv.V.Restarts != 1 {
			t.Fatalf("post-recovery window %d: %+v", kv.Meta.Seq, kv.V)
		}
	}

	code, body := get(t, srv.Handler(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("recovered server healthz: %d", code)
	}
	for _, line := range []string{"whodunit_degraded 0", "whodunit_restarts_total 1", "whodunit_gave_up 0"} {
		if !strings.Contains(body, line) {
			t.Fatalf("healthz missing %q:\n%s", line, body)
		}
	}
}

// TestServeSupervisedGivesUp exhausts the restart budget: every run dies
// before completing a window, so after MaxRestarts rebuilds the server
// stops restarting and reports the terminal state on /healthz as a 503.
func TestServeSupervisedGivesUp(t *testing.T) {
	srv := whodunit.NewServer(nil, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1,
		MaxRestarts: 2, RestartBackoff: time.Millisecond,
		MakeApp: func(run int) *whodunit.App {
			return serveApp(7, whodunit.WithFaults(failAt(50*whodunit.Millisecond)))
		},
	})
	srv.Run() // must not panic
	<-srv.Done()

	if !srv.GaveUp() || srv.Restarts() != 2 {
		t.Fatalf("gaveUp=%v restarts=%d, want true/2", srv.GaveUp(), srv.Restarts())
	}
	// Each of the three runs (initial + 2 restarts) salvaged its partial
	// window; the series is still dense.
	entries := srv.Ring().Entries()
	if len(entries) != 3 {
		t.Fatalf("retired %d windows, want 3", len(entries))
	}
	for i, kv := range entries {
		if kv.Meta.Seq != int64(i) {
			t.Fatalf("window %d has seq %d", i, kv.Meta.Seq)
		}
	}
	// The restarted runs never produced a full window, so their partial
	// windows stay degraded with no recovery.
	for _, kv := range entries[1:] {
		if !kv.V.Degraded || kv.V.Recovered {
			t.Fatalf("window %d after a failed restart: %+v", kv.Meta.Seq, kv.V)
		}
	}

	code, body := get(t, srv.Handler(), "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("gave-up healthz: %d", code)
	}
	for _, line := range []string{"whodunit_gave_up 1", "whodunit_restarts_total 2"} {
		if !strings.Contains(body, line) {
			t.Fatalf("healthz missing %q:\n%s", line, body)
		}
	}
}

// TestServeUnsupervisedStillPanics pins the historical contract: without
// a MakeApp factory, a dying run panics out of Run rather than being
// silently swallowed.
func TestServeUnsupervisedStillPanics(t *testing.T) {
	srv := whodunit.NewServer(
		serveApp(7, whodunit.WithFaults(failAt(50*whodunit.Millisecond))),
		whodunit.ServeConfig{Window: 100 * whodunit.Millisecond, Threshold: -1},
	)
	defer func() {
		if recover() == nil {
			t.Fatal("unsupervised Run swallowed an injected failure")
		}
		<-srv.Done() // Run closes finished before panicking
	}()
	srv.Run()
}

// stuckApp burns wall time without retiring windows: each virtual
// millisecond of compute costs 2ms of wall time, so a 1s virtual window
// needs ~2s of wall time — far beyond any watchdog used in tests.
func stuckApp(seed uint64) *whodunit.App {
	app := whodunit.NewApp("serve-test", whodunit.WithSeed(seed))
	st := app.Stage("w")
	st.Go("spin", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for {
			pr.Compute(whodunit.Millisecond)
			time.Sleep(2 * time.Millisecond)
		}
	})
	return app
}

// TestServeWatchdogAborts wires a wall-clock watchdog against a scenario
// that never retires a window: the watchdog must abort the run, the
// supervisor must treat the abort as a crash, and the restart budget
// must eventually trip.
func TestServeWatchdogAborts(t *testing.T) {
	srv := whodunit.NewServer(nil, whodunit.ServeConfig{
		Window: whodunit.Second, Threshold: -1,
		MaxRestarts: 1, RestartBackoff: time.Millisecond,
		Watchdog: 80 * time.Millisecond,
		MakeApp:  func(run int) *whodunit.App { return stuckApp(uint64(run) + 1) },
	})
	done := make(chan struct{})
	go func() { defer close(done); srv.Run() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never aborted the stuck run")
	}
	if !srv.GaveUp() || srv.Restarts() != 1 {
		t.Fatalf("gaveUp=%v restarts=%d, want true/1", srv.GaveUp(), srv.Restarts())
	}
	// Each aborted run still salvaged its in-progress window.
	if n := srv.Ring().Len(); n != 2 {
		t.Fatalf("retired %d windows, want 2 partials", n)
	}
}

// TestServeStreamDegradedEvents checks the SSE framing of a supervised
// recovery: degraded windows carry an extra "degraded" event, and the
// recovery window says so in its payload.
func TestServeStreamDegradedEvents(t *testing.T) {
	srv := whodunit.NewServer(nil, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 5,
		RestartBackoff: time.Millisecond,
		MakeApp: func(run int) *whodunit.App {
			if run == 0 {
				return serveApp(7, whodunit.WithFaults(failAt(150*whodunit.Millisecond)))
			}
			return serveApp(7)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	go srv.Run()

	var windows, degraded, recovered int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: window":
			windows++
		case line == "event: degraded":
			degraded++
		case strings.HasPrefix(line, "data: {\"seq\""):
			if strings.Contains(line, "\"recovered\": true") {
				recovered++
			}
		}
		if line == "event: end" {
			break
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	<-srv.Done()
	// Run 0 retires window 0 full and window 1 partial-at-crash; run 1
	// retires windows 2..4. Window 2 is degraded+recovered.
	if windows != 5 || degraded != 1 || recovered != 1 {
		t.Fatalf("streamed windows=%d degraded=%d recovered=%d, want 5/1/1",
			windows, degraded, recovered)
	}
}

func TestNewServerValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("no window", func() {
		whodunit.NewServer(serveApp(1), whodunit.ServeConfig{})
	})
	// Window retirement reads every stage's profiler on domain 0's clock,
	// so a served app must run on one time domain.
	mustPanic("sharded app", func() {
		whodunit.NewServer(whodunit.NewApp("s", whodunit.WithShards(4)), whodunit.ServeConfig{Window: whodunit.Second})
	})
	mustPanic("negative retain", func() {
		whodunit.NewServer(serveApp(1), whodunit.ServeConfig{Window: whodunit.Second, Retain: -1})
	})
	mustPanic("negative max windows", func() {
		whodunit.NewServer(serveApp(1), whodunit.ServeConfig{Window: whodunit.Second, MaxWindows: -1})
	})
	mustPanic("negative pace", func() {
		whodunit.NewServer(serveApp(1), whodunit.ServeConfig{Window: whodunit.Second, Pace: -0.5})
	})
}
