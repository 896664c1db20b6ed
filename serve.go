package whodunit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"whodunit/internal/testhook"
	"whodunit/internal/vclock"
	"whodunit/internal/window"
)

// Continuous profiling service: a Server runs a windowed App indefinitely
// (or for a bounded number of windows), retains the most recent retired
// per-window Reports in a ring, checks adjacent windows against an alert
// threshold, and exposes the results over HTTP:
//
//	GET /report   — a retained window (?window=N), the latest (default),
//	                or the in-progress one (?window=live); ?format=text|json|folded
//	GET /windows  — JSON index of retained windows and alert state
//	GET /stream   — SSE feed of per-window Reports (and alerts) as they retire
//	GET /diff     — diff two retained windows (?a=N&b=M); ?format=text|json
//	GET /healthz  — prometheus-style status; 503 while an alert is active
//
// The Server alone cuts and numbers windows: it ticks them on the app's
// clock and numbers them in one series across supervised restarts. The
// simulation stays single-threaded and deterministic: window retirement
// happens in scheduler context, and live /report requests are
// epoch-pinned reads — the handler enqueues a closure that the
// simulation executes between events (inside its stop predicate),
// reading the live profilers into a Report that keeps only what it
// detaches, which the handler then serializes. With a fixed seed, the
// sequence of retired-window Reports is bit-identical across runs; the
// HTTP layer is the only nondeterministic edge.
//
// Retirement decides a window's alert from the largest delta between it
// and the previous full window (maxDelta), a walk that allocates
// nothing; the window's auto-diff, that pair's ReportDiff, is built on
// its first read (WindowEvent.Diff). A retired window is immutable, so
// the auto-diff and each encoding — /report in every format, the
// auto-diff in every format, the /stream frame — is built once, on the
// first read, and shared by every later reader. A /diff of a window
// against its auto-diff base serves that diff; only other pairs are
// diffed per request. The encodings live on the ring entry and go with
// it, so memory grows with Retain, not with uptime. The live window,
// /windows and /healthz change as the run goes and are built per
// request.

// ServeConfig configures a Server.
type ServeConfig struct {
	// Window is the aggregation-window length in virtual time
	// (required): profiles are retired into one Report per window.
	Window Duration
	// Retain is how many retired windows stay queryable (default 16).
	Retain int
	// Threshold gates the automatic adjacent-window diff: when the diff
	// of two consecutive full windows has MaxDelta > Threshold, an alert
	// fires. Negative disables alerting (the default zero value alerts
	// on any divergence).
	Threshold int64
	// MaxWindows stops the run after that many retired windows
	// (0 = run until Stop).
	MaxWindows int
	// Pace throttles the simulation to Pace virtual seconds per wall
	// second (1.0 = real time, 0 = free-run). Pacing only affects wall
	// scheduling, never virtual-time behavior.
	Pace float64

	// MakeApp, when set, makes the server supervised: run is the 0-based
	// attempt number, and after a run dies — a panic in a simulated
	// thread or scheduler callback (e.g. an injected Fail), or a watchdog
	// abort — the server builds a fresh app with MakeApp(run+1) and keeps
	// serving, in a degraded state until the new run retires its first
	// full window. MakeApp(0) supplies the initial app when NewServer is
	// given a nil one. Without MakeApp a dying run panics out of Run, as
	// an unsupervised simulation always has.
	MakeApp func(run int) *App
	// MaxRestarts bounds how many times a supervised server rebuilds the
	// app (default 3 when MakeApp is set); once exceeded the server gives
	// up: Run returns, /healthz goes 503.
	MaxRestarts int
	// RestartBackoff is the wall-clock wait before the first restart
	// (default 100ms when MakeApp is set), doubling on each subsequent
	// one.
	RestartBackoff time.Duration
	// Watchdog, when positive, bounds the wall time between window
	// retirements: a run that goes that long without retiring one (a
	// stuck scenario) is aborted and treated like a crash. 0 disables.
	Watchdog time.Duration
}

// WindowEvent is one retired window as published on the ring and the
// /stream feed: the window's Report, the largest delta against the
// previous full window and the alert verdict it decided. The diff
// against that window (Diff) is built on its first read, not at
// retirement. The degraded-state fields are set only on supervised
// servers that have restarted: they are zero on every healthy window,
// so fault-free feeds are unchanged.
type WindowEvent struct {
	Report   *Report `json:"report"`
	MaxDelta int64   `json:"max_delta"`
	Alert    bool    `json:"alert"`
	// Degraded marks windows retired while the server was recovering
	// from a died run (between a restart and the next full window).
	Degraded bool `json:"degraded,omitempty"`
	// Recovered marks the first full window after a restart — the
	// moment the server leaves the degraded state.
	Recovered bool `json:"recovered,omitempty"`
	// Restarts is the cumulative restart count at retirement time.
	Restarts int64 `json:"restarts,omitempty"`

	// prev is the previous full window's report, which MaxDelta
	// compares against; nil for a partial window and the first full one.
	prev *Report
	enc  *encodings // filled on first read; behind a pointer so the event copies
}

// Diff returns the window's auto-diff, Diff of the previous full
// window's report against this one's, or nil when MaxDelta compared
// nothing. It is built on the first call and shared by every later one.
func (ev *WindowEvent) Diff() *ReportDiff {
	if ev.prev == nil {
		return nil
	}
	m := ev.enc
	m.diffOnce.Do(func() {
		m.diff = Diff(ev.prev, ev.Report)
		testhook.AutoDiffs.Add(1)
	})
	return m.diff
}

// Against returns the window the auto-diff compares against, the
// previous full one, or nil; it does not build the diff.
func (ev *WindowEvent) Against() *WindowMeta {
	if ev.prev == nil {
		return nil
	}
	return ev.prev.Window
}

// windowEventFields is WindowEvent without its methods, so that
// MarshalJSON can encode its fields without calling itself.
type windowEventFields WindowEvent

// MarshalJSON encodes the event's fields with its auto-diff under
// "diff", after "report" and before the rest, building the diff if no
// reader has yet. The outer Report hides the embedded one.
func (ev *WindowEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Report *Report     `json:"report"`
		Diff   *ReportDiff `json:"diff,omitempty"`
		*windowEventFields
	}{ev.Report, ev.Diff(), (*windowEventFields)(ev)})
}

// An encoding is one rendering of a retired window that the HTTP API
// serves: its report, its auto-diff, or its /stream frame.
type encoding int

const (
	reportJSON encoding = iota
	reportText
	reportFolded
	diffJSON
	diffText
	streamFrame
	numEncodings
)

// reportFormats and diffFormats map a ?format= value to its encoding.
var (
	reportFormats = map[string]encoding{"": reportJSON, "json": reportJSON, "text": reportText, "folded": reportFolded}
	diffFormats   = map[string]encoding{"": diffJSON, "json": diffJSON, "text": diffText}
)

// encodings memoizes a retired window's auto-diff and renderings, each
// built once on its first read.
type encodings struct {
	diffOnce sync.Once
	diff     *ReportDiff
	once     [numEncodings]sync.Once
	b        [numEncodings][]byte
	err      [numEncodings]error
}

// encoded returns the window's encoding e, building it on the first call.
func (ev *WindowEvent) encoded(e encoding) ([]byte, error) {
	m := ev.enc
	m.once[e].Do(func() {
		var buf bytes.Buffer
		switch e {
		case streamFrame:
			m.err[e] = ev.writeFrame(&buf)
		case diffJSON, diffText:
			m.err[e] = writeEncoding(&buf, e, nil, ev.Diff())
		default:
			m.err[e] = writeEncoding(&buf, e, ev.Report, nil)
		}
		m.b[e] = buf.Bytes()
	})
	return m.b[e], m.err[e]
}

// writeEncoding renders rep (the report encodings) or d (the diff ones).
func writeEncoding(w io.Writer, e encoding, rep *Report, d *ReportDiff) error {
	switch e {
	case reportJSON:
		return rep.JSON(w)
	case reportText:
		rep.Text(w)
	case reportFolded:
		rep.Folded(w)
	case diffJSON:
		return d.JSON(w)
	case diffText:
		d.Text(w)
	default:
		panic(fmt.Sprintf("whodunit: encoding %d has no writer", e))
	}
	return nil
}

// writeFrame writes the window's /stream frame: a "window" event (data:
// the WindowEvent as compact JSON), then an "alert" event when the
// auto-diff exceeded the threshold and a "degraded" event while the
// server recovers from a restart.
func (ev *WindowEvent) writeFrame(w io.Writer) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	seq := ev.Report.Window.Seq
	fmt.Fprintf(w, "event: window\nid: %d\ndata: %s\n\n", seq, data)
	if ev.Alert {
		fmt.Fprintf(w, "event: alert\nid: %d\ndata: {\"seq\": %d, \"max_delta\": %d}\n\n",
			seq, seq, ev.MaxDelta)
	}
	if ev.Degraded {
		fmt.Fprintf(w, "event: degraded\nid: %d\ndata: {\"seq\": %d, \"restarts\": %d, \"recovered\": %v}\n\n",
			seq, seq, ev.Restarts, ev.Recovered)
	}
	return nil
}

// serve answers with the window's encoding e.
func (ev *WindowEvent) serve(w http.ResponseWriter, e encoding) {
	b, err := ev.encoded(e)
	serveEncoding(w, e, b, err)
}

// serveEncoding answers with encoding e, or a 500 if it failed.
func serveEncoding(w http.ResponseWriter, e encoding, b []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ctype := "text/plain; charset=utf-8"
	if e == reportJSON || e == diffJSON {
		ctype = "application/json"
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(b)
}

// serveFresh answers with encoding e of a report or diff that is not a
// retained window's, encoding it for this request alone.
func serveFresh(w http.ResponseWriter, e encoding, rep *Report, d *ReportDiff) {
	var buf bytes.Buffer
	err := writeEncoding(&buf, e, rep, d)
	serveEncoding(w, e, buf.Bytes(), err)
}

// Server drives a windowed App as a continuous profiling service. Create
// with NewServer, start with Run (blocking; typically in a goroutine),
// serve Handler over HTTP, stop with Stop.
type Server struct {
	app atomic.Pointer[App] // current app; swapped on supervised restart
	cfg ServeConfig

	ring  *window.Ring[*WindowEvent]
	reqCh chan func()
	// pending is set after anything the stop predicate must act on: a
	// request enqueued on reqCh, Stop, a watchdog abort. While it is
	// clear the predicate is this one load.
	pending atomic.Bool

	stopOnce  sync.Once
	stopped   atomic.Bool
	stopCh    chan struct{}
	finished  chan struct{}
	startWall time.Time

	// Sim-goroutine-only state. winSeq runs on across supervised
	// restarts; winStart is on the current run's clock.
	prevFull *Report
	winSeq   int64       // the window in progress
	winStart vclock.Time // where it started

	alertsTotal atomic.Int64
	alertActive atomic.Bool

	// Supervision state (MakeApp servers).
	restarts   atomic.Int64
	degraded   atomic.Bool
	gaveUp     atomic.Bool
	aborted    atomic.Bool  // watchdog tripped the current run
	lastRetire atomic.Int64 // wall nanos of the last retirement (watchdog)

	final *Report
}

// NewServer wraps app into a continuous profiling service, windowed by
// cfg.Window. The app must not have been run and must have one time
// domain (see adopt). With cfg.MakeApp set, app may be nil (the factory
// supplies attempt 0) and the server supervises: a run that dies is
// rebuilt and restarted instead of panicking out of Run.
func NewServer(app *App, cfg ServeConfig) *Server {
	if app == nil {
		if cfg.MakeApp == nil {
			panic("whodunit: NewServer needs an app or a ServeConfig.MakeApp factory")
		}
		app = cfg.MakeApp(0)
	}
	if cfg.Window <= 0 {
		panic("whodunit: NewServer needs a positive ServeConfig.Window")
	}
	if cfg.Retain == 0 {
		cfg.Retain = 16
	}
	if cfg.Retain < 1 {
		panic("whodunit: ServeConfig.Retain must be at least 1")
	}
	if cfg.MaxWindows < 0 {
		panic("whodunit: ServeConfig.MaxWindows must be >= 0")
	}
	if cfg.Pace < 0 {
		panic("whodunit: ServeConfig.Pace must be >= 0")
	}
	if cfg.MaxRestarts < 0 {
		panic("whodunit: ServeConfig.MaxRestarts must be >= 0")
	}
	if cfg.RestartBackoff < 0 {
		panic("whodunit: ServeConfig.RestartBackoff must be >= 0")
	}
	if cfg.Watchdog < 0 {
		panic("whodunit: ServeConfig.Watchdog must be >= 0")
	}
	if cfg.MakeApp != nil {
		if cfg.MaxRestarts == 0 {
			cfg.MaxRestarts = 3
		}
		if cfg.RestartBackoff == 0 {
			cfg.RestartBackoff = 100 * time.Millisecond
		}
	}
	s := &Server{
		cfg:      cfg,
		ring:     window.NewRing[*WindowEvent](cfg.Retain),
		reqCh:    make(chan func(), 64),
		stopCh:   make(chan struct{}),
		finished: make(chan struct{}),
	}
	s.adopt(app)
	return s
}

// adopt makes an app (initial or restart-built) the server's next run.
// Window retirement reads every stage's profiler on domain 0's clock,
// so the app must run on one time domain.
func (s *Server) adopt(app *App) {
	if app.ran {
		panic(fmt.Sprintf("whodunit: served app %q has already run", app.Name))
	}
	if app.Shards() > 1 {
		panic(fmt.Sprintf("whodunit: served app %q has %d time domains (WithShards); a served app runs on one", app.Name, app.Shards()))
	}
	s.app.Store(app)
}

// App returns the served application (the current one, on a supervised
// server that has restarted).
func (s *Server) App() *App { return s.app.Load() }

// Run drives the simulation until Stop is called (or MaxWindows retire),
// retiring windows as virtual time passes. It blocks; run it in a
// goroutine when serving HTTP. The returned Report is the whole-run
// residue after the final window retired (its stages are empty in a
// windowed run — every sample lands in some window); use the ring and
// the HTTP API for the per-window results.
//
// On a supervised server (ServeConfig.MakeApp) Run is a supervision
// loop: a run that dies — an injected or genuine panic in the
// simulation, or a watchdog abort — retires its partial window, is
// rebuilt via MakeApp after an exponential wall-clock backoff, and the
// service continues in a degraded state until the fresh run retires its
// first full window. Once MaxRestarts is exceeded the server gives up
// and Run returns. Without MakeApp a dying run panics, as before.
func (s *Server) Run() *Report {
	s.startWall = time.Now()
	for run := 0; ; run++ {
		rep, err := s.runOnce(s.app.Load())
		s.final = rep
		if err == nil || s.stopped.Load() {
			break
		}
		if s.cfg.MakeApp == nil {
			close(s.finished)
			s.ring.Close()
			panic(err)
		}
		if s.restarts.Load() >= int64(s.cfg.MaxRestarts) {
			s.gaveUp.Store(true)
			break
		}
		n := s.restarts.Add(1)
		s.degraded.Store(true)
		if s.wallWait(time.Now().Add(s.cfg.RestartBackoff << (n - 1))) {
			break // stopped while backing off
		}
		s.adopt(s.cfg.MakeApp(run + 1))
	}
	close(s.finished)
	s.ring.Close()
	return s.final
}

// runOnce drives one app until it stops, dies, or trips the watchdog,
// retiring a window every cfg.Window of virtual time and then a final
// partial one, so shutdown loses no samples. It returns the residue.
func (s *Server) runOnce(app *App) (*Report, error) {
	s.aborted.Store(false)
	s.lastRetire.Store(time.Now().UnixNano())
	var wdStop chan struct{}
	if s.cfg.Watchdog > 0 {
		wdStop = make(chan struct{})
		go s.watchdog(wdStop)
	}
	app.start()
	// Armed after pipes and faults: same-instant events keep their order.
	s.winStart = app.sim.Now()
	app.sim.Every(s.cfg.Window, func() { s.retire(app) })
	app.group.RunUntil(func() bool {
		return s.pending.Load() && s.stopRequested()
	})
	s.retire(app)
	rep, err := app.finish()
	if wdStop != nil {
		close(wdStop)
	}
	if err == nil && s.aborted.Load() && !s.stopped.Load() {
		err = fmt.Errorf("whodunit: watchdog: no window retired in %v of wall time", s.cfg.Watchdog)
	}
	return rep, err
}

// watchdog aborts the current run if no window retires for the
// configured wall-time budget — the stuck-scenario guard. The abort
// trips the stop predicate at the next event boundary; a simulation
// wedged inside a single native call is beyond its reach.
func (s *Server) watchdog(stop chan struct{}) {
	tick := s.cfg.Watchdog / 8
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			last := time.Unix(0, s.lastRetire.Load())
			if time.Since(last) > s.cfg.Watchdog {
				s.aborted.Store(true)
				s.pending.Store(true)
				return
			}
		}
	}
}

// wallWait sleeps until the wall-clock deadline — a restart backoff or
// a paced window's due time — while staying responsive: epoch-pinned
// reads drain (against the live app, or a dead app's final state) and
// Stop cuts the wait short. Reports whether Stop did.
func (s *Server) wallWait(deadline time.Time) (stopped bool) {
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		timer := time.NewTimer(remain)
		select {
		case fn := <-s.reqCh:
			timer.Stop()
			fn()
		case <-s.stopCh:
			timer.Stop()
			return true
		case <-timer.C:
			return false
		}
	}
}

// Stop asks the running simulation to finish: the stop predicate trips
// at the next event boundary, the in-progress window retires as a final
// partial window, and Run returns. Idempotent and safe from any
// goroutine (HTTP handlers, signal handlers).
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		s.stopped.Store(true)
		s.pending.Store(true)
		close(s.stopCh)
	})
}

// Done returns a channel closed when Run has finished.
func (s *Server) Done() <-chan struct{} { return s.finished }

// Ring exposes the retained-window ring (for tests and custom feeds).
func (s *Server) Ring() *window.Ring[*WindowEvent] { return s.ring }

// AlertsTotal reports how many adjacent-window alerts have fired.
func (s *Server) AlertsTotal() int64 { return s.alertsTotal.Load() }

// AlertActive reports whether the most recent adjacent-window diff
// exceeded the threshold.
func (s *Server) AlertActive() bool { return s.alertActive.Load() }

// Restarts reports how many times the supervision loop rebuilt the app.
func (s *Server) Restarts() int64 { return s.restarts.Load() }

// Degraded reports whether the server is between a restart and the
// fresh run's first full window.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// GaveUp reports whether the supervision loop exhausted MaxRestarts.
func (s *Server) GaveUp() bool { return s.gaveUp.Load() }

// stopRequested is the stop predicate's slow path, taken once pending is
// set: it runs the requests enqueued so far and reports whether the run
// must stop. A stopped or aborted run leaves pending set, so every later
// call reports true again.
func (s *Server) stopRequested() bool {
	// Clear before draining: a request enqueued after the drain sets
	// pending again once it is on reqCh.
	s.pending.Store(false)
	s.drainRequests()
	if s.stopped.Load() || s.aborted.Load() {
		s.pending.Store(true)
		return true
	}
	return false
}

// drainRequests executes pending epoch-pinned read closures. Runs in the
// simulation goroutine between events, so the closures may touch live
// profiler state without races.
func (s *Server) drainRequests() {
	for {
		select {
		case fn := <-s.reqCh:
			fn()
		default:
			return
		}
	}
}

// windowReport reads app's window in progress, up to now, into a
// Report; retire ends the window. Runs in the simulation goroutine.
// Window reports omit the crosstalk matrix and flow list: those
// accumulate over the whole run, and copying cumulative totals into
// every window would make identical adjacent windows diff non-empty.
func (s *Server) windowReport(app *App, retire bool) *Report {
	end := app.sim.Now()
	rep := app.stageReport(retire)
	rep.Elapsed = Duration(end.Sub(s.winStart))
	rep.Window = &WindowMeta{Seq: s.winSeq, Start: Duration(s.winStart), End: Duration(end)}
	return rep
}

// retire ends app's window now (each profiler swaps its tree set out in
// O(1), see profiler.Retire), wraps its Report into a WindowEvent,
// decides its alert from the largest delta against the previous full
// window, publishes it on the ring, and enforces MaxWindows and Pace.
// Runs in scheduler context at window ticks, and once after the run
// stops for the final window.
func (s *Server) retire(app *App) {
	end := app.sim.Now()
	if end <= s.winStart {
		return // empty window (e.g. final retire landing on a tick)
	}
	meta := window.Meta{Seq: s.winSeq, Start: s.winStart, End: end}
	rep := s.windowReport(app, true)
	s.winSeq, s.winStart = s.winSeq+1, end
	s.lastRetire.Store(time.Now().UnixNano())
	ev := &WindowEvent{Report: rep, Restarts: s.restarts.Load(), enc: new(encodings)}
	// Only full windows participate in the adjacent auto-diff: the final
	// partial window legitimately has fewer samples and would always
	// "regress".
	full := rep.Elapsed == s.cfg.Window
	if s.degraded.Load() {
		ev.Degraded = true
		if full {
			// The rebuilt run has proven itself with a complete window:
			// leave the degraded state, and say so on the feed.
			ev.Recovered = true
			s.degraded.Store(false)
		}
	}
	if full && s.prevFull != nil {
		// The verdict walks the pair without building its diff; ev.Diff
		// builds that from prev when it is first read.
		ev.prev = s.prevFull
		ev.MaxDelta = maxDelta(s.prevFull, rep)
		if s.cfg.Threshold >= 0 {
			ev.Alert = ev.MaxDelta > s.cfg.Threshold
			if ev.Alert {
				s.alertsTotal.Add(1)
			}
			s.alertActive.Store(ev.Alert)
		}
	}
	if full {
		s.prevFull = rep
	}
	s.ring.Append(meta, ev)
	if s.cfg.MaxWindows > 0 && s.ring.Total() >= int64(s.cfg.MaxWindows) {
		s.Stop()
	}
	// Pacing: wait until the window's end is due in wall time; reads keep
	// flowing meanwhile, so a paced server answers /report promptly even
	// between distant windows.
	if s.cfg.Pace > 0 && !s.stopped.Load() {
		s.wallWait(s.startWall.Add(time.Duration(float64(rep.Window.End) / s.cfg.Pace)))
	}
}

// liveWindow is the report the window in progress would retire as if
// it ended now. It keeps only what NewStageReport detaches, so it
// shares nothing mutable with the running app.
func (s *Server) liveWindow() *Report { return s.windowReport(s.app.Load(), false) }

// liveReport builds a Report of the in-progress window via an
// epoch-pinned read: the closure runs liveWindow in the simulation
// goroutine at an event boundary. Returns false if the run has already
// finished.
func (s *Server) liveReport() (*Report, bool) {
	ch := make(chan *Report, 1)
	fn := func() { ch <- s.liveWindow() }
	select {
	case s.reqCh <- fn:
		s.pending.Store(true)
	case <-s.finished:
		return nil, false
	}
	select {
	case rep := <-ch:
		return rep, true
	case <-s.finished:
		// The run may have finished between enqueue and execution; the
		// closure could still have run on the final drain.
		select {
		case rep := <-ch:
			return rep, true
		default:
			return nil, false
		}
	}
}

// --- HTTP API -------------------------------------------------------

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/report", s.handleReport)
	mux.HandleFunc("/windows", s.handleWindows)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/diff", s.handleDiff)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	format := q.Get("format")
	e, ok := reportFormats[format]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown format %q (want text, json or folded)", format), http.StatusBadRequest)
		return
	}
	switch win := q.Get("window"); win {
	case "live":
		if rep, ok := s.liveReport(); ok {
			serveFresh(w, e, rep, nil)
			return
		}
		// Run finished: fall through to the latest retired window.
		fallthrough
	case "":
		kv, ok := s.ring.Latest()
		if !ok {
			http.Error(w, "no window retired yet", http.StatusNotFound)
			return
		}
		kv.V.serve(w, e)
	default:
		seq, err := strconv.ParseInt(win, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad window %q (want a sequence number or \"live\")", win), http.StatusBadRequest)
			return
		}
		kv, ok := s.ring.Get(seq)
		if !ok {
			http.Error(w, fmt.Sprintf("window %d not retained (retired %d, retaining last %d)",
				seq, s.ring.Total(), s.cfg.Retain), http.StatusNotFound)
			return
		}
		kv.V.serve(w, e)
	}
}

// windowIndexEntry is one retained window in the /windows index.
type windowIndexEntry struct {
	Seq      int64    `json:"seq"`
	Start    Duration `json:"start_ns"`
	End      Duration `json:"end_ns"`
	Elapsed  Duration `json:"elapsed_ns"`
	Samples  int64    `json:"samples"`
	MaxDelta int64    `json:"max_delta"`
	Alert    bool     `json:"alert"`
}

// windowIndex is the /windows response body.
type windowIndex struct {
	App         string             `json:"app"`
	WindowNS    Duration           `json:"window_ns"`
	Retired     int64              `json:"retired"`
	Retain      int                `json:"retain"`
	Threshold   int64              `json:"threshold"`
	AlertsTotal int64              `json:"alerts_total"`
	AlertActive bool               `json:"alert_active"`
	Windows     []windowIndexEntry `json:"windows"`
}

func (s *Server) handleWindows(w http.ResponseWriter, r *http.Request) {
	idx := windowIndex{
		App:         s.app.Load().Name,
		WindowNS:    s.cfg.Window,
		Retired:     s.ring.Total(),
		Retain:      s.cfg.Retain,
		Threshold:   s.cfg.Threshold,
		AlertsTotal: s.alertsTotal.Load(),
		AlertActive: s.alertActive.Load(),
	}
	for _, kv := range s.ring.Entries() {
		rep := kv.V.Report
		idx.Windows = append(idx.Windows, windowIndexEntry{
			Seq:      rep.Window.Seq,
			Start:    rep.Window.Start,
			End:      rep.Window.End,
			Elapsed:  rep.Elapsed,
			Samples:  rep.TotalSamples(),
			MaxDelta: kv.V.MaxDelta,
			Alert:    kv.V.Alert,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(idx)
}

// handleStream serves the SSE feed: each retirement's frame (see
// writeFrame), encoded once per window and shared by every subscriber.
// The stream ends when the run finishes or the client disconnects; slow
// clients skip windows rather than stalling the simulation.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// Subscribe before the headers go out: a client that has seen them
	// may start the run, and must not miss its first windows.
	ch, cancel := s.ring.Subscribe(16)
	defer cancel()
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case kv, open := <-ch:
			if !open {
				fmt.Fprint(w, "event: end\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			frame, err := kv.V.encoded(streamFrame)
			if err != nil {
				continue
			}
			w.Write(frame)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleDiff diffs two retained windows. When a is b's auto-diff base,
// b's auto-diff is the answer.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	format := q.Get("format")
	e, ok := diffFormats[format]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown format %q (want text or json)", format), http.StatusBadRequest)
		return
	}
	get := func(name string) (*WindowEvent, bool) {
		v := q.Get(name)
		if v == "" {
			http.Error(w, fmt.Sprintf("missing query parameter %q (a window sequence number)", name), http.StatusBadRequest)
			return nil, false
		}
		seq, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad window %q", v), http.StatusBadRequest)
			return nil, false
		}
		kv, ok := s.ring.Get(seq)
		if !ok {
			http.Error(w, fmt.Sprintf("window %d not retained", seq), http.StatusNotFound)
			return nil, false
		}
		return kv.V, true
	}
	a, ok := get("a")
	if !ok {
		return
	}
	b, ok := get("b")
	if !ok {
		return
	}
	if b.prev == a.Report {
		b.serve(w, e)
		return
	}
	serveFresh(w, e, nil, Diff(a.Report, b.Report))
}

// handleHealthz reports prometheus-style status lines; the response code
// is 503 while an adjacent-window alert is active — or once a
// supervised server has given up restarting — so the endpoint works
// directly as a load-balancer health check. The degraded state
// (recovering from a restart) is deliberately NOT a 503: the service is
// still serving, and conflating recovery with an alert would page on
// every successful self-heal. It is visible as whodunit_degraded.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	active := s.alertActive.Load()
	gaveUp := s.gaveUp.Load()
	up := 1
	select {
	case <-s.finished:
		up = 0
	default:
	}
	var virtualSeconds float64
	if kv, ok := s.ring.Latest(); ok {
		virtualSeconds = Duration(kv.Meta.End).Seconds()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if active || gaveUp {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "whodunit_up %d\n", up)
	fmt.Fprintf(w, "whodunit_windows_retired %d\n", s.ring.Total())
	fmt.Fprintf(w, "whodunit_alerts_total %d\n", s.alertsTotal.Load())
	fmt.Fprintf(w, "whodunit_alert_active %d\n", boolInt(active))
	fmt.Fprintf(w, "whodunit_degraded %d\n", boolInt(s.degraded.Load()))
	fmt.Fprintf(w, "whodunit_restarts_total %d\n", s.restarts.Load())
	fmt.Fprintf(w, "whodunit_gave_up %d\n", boolInt(gaveUp))
	fmt.Fprintf(w, "whodunit_stream_dropped_total %d\n", s.ring.Dropped())
	fmt.Fprintf(w, "whodunit_virtual_seconds %.6f\n", virtualSeconds)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
