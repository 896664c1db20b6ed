// Command whodunit-serve runs a serving scenario as a continuous
// profiling service: an open-loop app on the virtual clock, profiles
// aggregated into fixed virtual-time windows, adjacent windows
// auto-diffed against an alert threshold, all exposed over HTTP.
//
//	whodunit-serve -scenario serve-web                    # serve on 127.0.0.1:7077
//	curl localhost:7077/report?format=text                # latest retired window
//	curl localhost:7077/report?window=live                # the in-progress window
//	curl localhost:7077/windows                           # retained-window index
//	curl -N localhost:7077/stream                         # SSE feed of retiring windows
//	curl "localhost:7077/diff?a=3&b=4&format=text"        # diff two retained windows
//	whodunit-serve -scenario serve-shift -addr "" -windows 6   # headless bounded run
//	whodunit-serve -scenario serve-crashy -addr "" -windows 6 -pace 0   # supervised fault run
//
// Each retired window prints one line to stdout; windows whose
// adjacent diff exceeds the threshold print an ALERT line. Supervised
// scenarios (serve-crashy) rebuild a dying run through the scenario
// factory — windows retired while recovering are marked DEGRADED and
// the first full window after a restart prints a recovered line;
// -max-restarts bounds the rebuild budget and -watchdog aborts a run
// that stops retiring windows. The run stops after -windows windows
// (0 = run until SIGINT/SIGTERM); on a signal the simulation drains
// gracefully, retiring the in-progress window before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"whodunit"
	"whodunit/internal/cmdutil"
	"whodunit/internal/scenarios"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "whodunit-serve: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	scenario := flag.String("scenario", "serve-web", "serving scenario to run (see -list)")
	list := flag.Bool("list", false, "list serving scenarios and exit")
	addr := flag.String("addr", "127.0.0.1:7077", "HTTP listen address (empty = headless, no HTTP)")
	windowFlag := flag.Duration("window", 0, "aggregation window in virtual time (default: the scenario's recommended window)")
	retain := flag.Int("retain", 16, "retired windows kept queryable")
	threshold := flag.Int64("threshold", -2, "adjacent-window alert threshold in sample units; -1 disables (default: the scenario's recommended threshold)")
	maxWindows := flag.Int("windows", 0, "stop after this many retired windows (0 = run until signal)")
	pace := flag.Float64("pace", 1.0, "virtual seconds simulated per wall second (0 = free-run)")
	seed := flag.Uint64("seed", 0, "workload seed override (default: the scenario's seed)")
	maxRestarts := flag.Int("max-restarts", 3, "restart budget for supervised scenarios before giving up")
	watchdog := flag.Duration("watchdog", 0, "abort a run that retires no window for this much wall time (0 = off; supervised scenarios only)")
	mode := cmdutil.ModeFlag()
	flag.Parse()

	if *list {
		scenarios.List(os.Stdout, scenarios.KindServing)
		return
	}
	if flag.NArg() > 0 {
		fail("unexpected arguments %q (configuration is flag-only)", flag.Args())
	}
	s, ok := scenarios.ServeByName(*scenario)
	if !ok {
		if in, found := scenarios.Lookup(*scenario); found && in.Kind == scenarios.KindBatch {
			fail("%q is a batch scenario (run it with whodunit-run %s)", *scenario, *scenario)
		}
		fail("unknown scenario %q (known: %s)", *scenario, strings.Join(scenarios.ServeNames(), ", "))
	}
	if *retain < 1 {
		fail("-retain must be at least 1 (got %d)", *retain)
	}
	if *maxWindows < 0 {
		fail("-windows must be >= 0 (got %d)", *maxWindows)
	}
	if *pace < 0 {
		fail("-pace must be >= 0 (got %v)", *pace)
	}
	if *windowFlag < 0 {
		fail("-window must be positive (got %v)", *windowFlag)
	}
	if *threshold < -2 {
		fail("-threshold must be >= -1 (got %d); -1 disables alerting", *threshold)
	}
	if *addr == "" && *maxWindows == 0 {
		fail("headless (-addr \"\") with -windows 0 would run forever with no way to observe it; set -windows or an -addr")
	}
	if *maxRestarts < 1 {
		fail("-max-restarts must be at least 1 (got %d)", *maxRestarts)
	}
	if *watchdog < 0 {
		fail("-watchdog must be >= 0 (got %v)", *watchdog)
	}
	if *watchdog > 0 && s.MakeRun == nil {
		fail("-watchdog needs a supervised scenario (%s is unsupervised; try serve-crashy)", s.Name)
	}

	p := s.Defaults
	p.Mode = *mode
	if *seed != 0 {
		p.Seed = *seed
	}
	window := s.Window
	if *windowFlag > 0 {
		window = whodunit.Duration(*windowFlag)
	}
	thr := s.Threshold
	if *threshold >= -1 {
		thr = *threshold
	}

	cfg := whodunit.ServeConfig{
		Window:     window,
		Retain:     *retain,
		Threshold:  thr,
		MaxWindows: *maxWindows,
		Pace:       *pace,
	}
	var app *whodunit.App
	if s.MakeRun != nil {
		// Supervised scenario: the server rebuilds the app through the
		// factory when a run dies and serves on, degraded, until the
		// fresh run retires a full window.
		cfg.MakeApp = func(run int) *whodunit.App { return s.MakeRun(p, run) }
		cfg.MaxRestarts = *maxRestarts
		cfg.Watchdog = *watchdog
	} else {
		app = s.MakeApp(p)
	}
	srv := whodunit.NewServer(app, cfg)

	// Lead the narration with the registry's description of what is
	// being profiled, so a bare log identifies its scenario.
	if in, found := scenarios.Lookup(s.Name); found {
		fmt.Printf("scenario %s: %s\n", in.Name, in.About)
	}

	// Narrate retirements on stdout (the headless CI path greps these).
	// The subscription closes when the run finishes, so waiting on
	// printerDone after Run guarantees every window line is emitted —
	// including the final partial window of a graceful drain.
	events, cancelEvents := srv.Ring().Subscribe(64)
	printerDone := make(chan struct{})
	go func() {
		defer close(printerDone)
		for kv := range events {
			rep := kv.V.Report
			fmt.Printf("window %d [%.3fs, %.3fs): %d samples",
				rep.Window.Seq, rep.Window.Start.Seconds(), rep.Window.End.Seconds(), rep.TotalSamples())
			if kv.V.Diff != nil {
				// Diff against the previous FULL window — across a crash
				// partial that is not simply seq-1.
				prev := rep.Window.Seq - 1
				if kv.V.Diff.WindowA != nil {
					prev = kv.V.Diff.WindowA.Seq
				}
				fmt.Printf(", max delta %d vs window %d", kv.V.MaxDelta, prev)
			}
			if kv.V.Degraded {
				fmt.Printf(", DEGRADED (restart %d)", kv.V.Restarts)
			}
			fmt.Println()
			if kv.V.Alert {
				fmt.Printf("ALERT window %d: adjacent diff max delta %d exceeds threshold %d\n",
					rep.Window.Seq, kv.V.MaxDelta, thr)
			}
			if kv.V.Recovered {
				fmt.Printf("recovered: window %d is the first full window after restart %d\n",
					rep.Window.Seq, kv.V.Restarts)
			}
		}
	}()
	defer cancelEvents()

	var httpSrv *http.Server
	if *addr != "" {
		httpSrv = &http.Server{Addr: *addr, Handler: srv.Handler()}
		go func() {
			fmt.Printf("serving %s on http://%s (window %s, threshold %d, pace %gx)\n",
				s.Name, *addr, time.Duration(window), thr, *pace)
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fail("%v", err)
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Printf("received %s, draining: retiring the in-progress window\n", sig)
			srv.Stop()
		case <-srv.Done():
		}
	}()

	srv.Run()
	<-printerDone
	fmt.Printf("run finished: %d windows retired, %d alerts, %d restarts\n",
		srv.Ring().Total(), srv.AlertsTotal(), srv.Restarts())
	if srv.GaveUp() {
		fmt.Printf("gave up: restart budget (%d) exhausted\n", *maxRestarts)
	}
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}
}
