// Command whodunit-serve runs a serving scenario as a continuous
// profiling service: an open-loop app on the virtual clock, profiles
// aggregated into fixed virtual-time windows, adjacent windows
// auto-diffed against an alert threshold, all exposed over HTTP.
//
//	whodunit-serve -scenario serve-web                    # serve on 127.0.0.1:7077
//	whodunit-serve -scenario serve-web:seed=3,mode=csprof # seed and mode overrides
//	curl localhost:7077/report?format=text                # latest retired window
//	curl localhost:7077/report?window=live                # the in-progress window
//	curl localhost:7077/windows                           # retained-window index
//	curl -N localhost:7077/stream                         # SSE feed of retiring windows
//	curl "localhost:7077/diff?a=3&b=4&format=text"        # diff two retained windows
//	whodunit-serve -scenario serve-shift -addr "" -windows 6   # headless bounded run
//	whodunit-serve -scenario serve-crashy -addr "" -windows 6 -pace 0   # supervised fault run
//
// -scenario is a run spec, name[:seed=N][,mode=off|csprof|whodunit|gprof]
// — whodunit-run's grammar (scenarios.ParseServeSpec) without the trace
// keys. Each retired window prints one line to stdout; windows whose
// adjacent diff exceeds the threshold print an ALERT line. Every
// scenario is served supervised: a run that dies (serve-crashy's run 0
// does) is rebuilt through the scenario's App — windows retired while
// recovering are marked DEGRADED and the first full window after a
// restart prints a recovered line; -max-restarts bounds the rebuild
// budget and -watchdog aborts a run that stops retiring windows. The
// run stops after -windows windows (0 = run until SIGINT/SIGTERM); on a
// signal the simulation drains gracefully, retiring the in-progress
// window before exit. Exit status:
// 0 on success, 1 if the HTTP server fails mid-run, 2 on a usage error
// or an -addr that cannot be bound.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"whodunit"
	"whodunit/internal/scenarios"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam, like whodunit-run's.
// It binds -addr before it prints or runs anything, and it leaves no
// signal handler behind.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whodunit-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "serve-web", "serving run spec: name[:seed=N][,mode=M] (see -list)")
	list := fs.Bool("list", false, "list the scenario corpus and exit")
	addr := fs.String("addr", "127.0.0.1:7077", "HTTP listen address (empty = headless, no HTTP)")
	windowFlag := fs.Duration("window", 0, "aggregation window in virtual time (default: the scenario's recommended window)")
	retain := fs.Int("retain", 16, "retired windows kept queryable")
	threshold := fs.Int64("threshold", -2, "adjacent-window alert threshold in sample units; -1 disables (default: the scenario's recommended threshold)")
	maxWindows := fs.Int("windows", 0, "stop after this many retired windows (0 = run until signal)")
	pace := fs.Float64("pace", 1.0, "virtual seconds simulated per wall second (0 = free-run)")
	maxRestarts := fs.Int("max-restarts", 3, "restart budget before giving up")
	watchdog := fs.Duration("watchdog", 0, "abort a run that retires no window for this much wall time (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		scenarios.List(stdout)
		return 0
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "whodunit-serve: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q (configuration is flag-only)", fs.Args())
	}
	s, err := scenarios.ParseServeSpec(*scenario)
	if err != nil {
		return usage("-scenario: %v", err)
	}
	switch {
	case *retain < 1:
		return usage("-retain must be at least 1 (got %d)", *retain)
	case *maxWindows < 0:
		return usage("-windows must be >= 0 (got %d)", *maxWindows)
	case *pace < 0:
		return usage("-pace must be >= 0 (got %v)", *pace)
	case *windowFlag < 0:
		return usage("-window must be positive (got %v)", *windowFlag)
	case *threshold < -2:
		return usage("-threshold must be >= -1 (got %d); -1 disables alerting", *threshold)
	case *addr == "" && *maxWindows == 0:
		return usage("headless (-addr \"\") with -windows 0 would run forever with no way to observe it; set -windows or an -addr")
	case *maxRestarts < 1:
		return usage("-max-restarts must be at least 1 (got %d)", *maxRestarts)
	case *watchdog < 0:
		return usage("-watchdog must be >= 0 (got %v)", *watchdog)
	}

	// Bind first: an address that cannot be served is a usage error, seen
	// before anything claims to serve on it.
	var ln net.Listener
	if *addr != "" {
		if ln, err = net.Listen("tcp", *addr); err != nil {
			return usage("-addr: %v", err)
		}
		defer ln.Close()
	}

	window := s.Window
	if *windowFlag > 0 {
		window = whodunit.Duration(*windowFlag)
	}
	thr := s.Threshold
	if *threshold >= -1 {
		thr = *threshold
	}

	// The server rebuilds the app when a run dies and serves on,
	// degraded, until the fresh run retires a full window.
	srv := s.Server(whodunit.ServeConfig{
		Window:      window,
		Retain:      *retain,
		Threshold:   thr,
		MaxWindows:  *maxWindows,
		Pace:        *pace,
		MaxRestarts: *maxRestarts,
		Watchdog:    *watchdog,
	})

	// Lead the narration with what is being profiled, so a bare log
	// identifies its scenario.
	fmt.Fprintf(stdout, "scenario %s: %s\n", s.Name, s.About)

	// Narrate retirements on stdout (TestHeadlessBoundedRun reads these).
	// The subscription closes when the run finishes, so waiting on
	// printerDone after Run guarantees every window line is emitted —
	// including the final partial window of a graceful drain.
	events, cancelEvents := srv.Ring().Subscribe(64)
	printerDone := make(chan struct{})
	go func() {
		defer close(printerDone)
		for kv := range events {
			rep := kv.V.Report
			fmt.Fprintf(stdout, "window %d [%.3fs, %.3fs): %d samples",
				rep.Window.Seq, rep.Window.Start.Seconds(), rep.Window.End.Seconds(), rep.TotalSamples())
			// Compared against the previous FULL window — across a crash
			// partial that is not simply seq-1. Against does not build
			// the diff.
			if prev := kv.V.Against(); prev != nil {
				fmt.Fprintf(stdout, ", max delta %d vs window %d", kv.V.MaxDelta, prev.Seq)
			}
			if kv.V.Degraded {
				fmt.Fprintf(stdout, ", DEGRADED (restart %d)", kv.V.Restarts)
			}
			fmt.Fprintln(stdout)
			if kv.V.Alert {
				fmt.Fprintf(stdout, "ALERT window %d: adjacent diff max delta %d exceeds threshold %d\n",
					rep.Window.Seq, kv.V.MaxDelta, thr)
			}
			if kv.V.Recovered {
				fmt.Fprintf(stdout, "recovered: window %d is the first full window after restart %d\n",
					rep.Window.Seq, kv.V.Restarts)
			}
		}
	}()
	defer cancelEvents()

	var httpSrv *http.Server
	serveErr := make(chan error, 1)
	if ln != nil {
		httpSrv = &http.Server{Handler: srv.Handler()}
		fmt.Fprintf(stdout, "serving %s on http://%s (window %s, threshold %d, pace %gx)\n",
			s.Name, ln.Addr(), time.Duration(window), thr, *pace)
		// Serve returns ErrServerClosed after the Shutdown below, or an
		// error that ends the run early.
		go func() { serveErr <- httpSrv.Serve(ln); srv.Stop() }()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(stdout, "received %s, draining: retiring the in-progress window\n", sig)
			srv.Stop()
		case <-srv.Done():
		}
	}()

	srv.Run()
	<-printerDone
	fmt.Fprintf(stdout, "run finished: %d windows retired, %d alerts, %d restarts\n",
		srv.Ring().Total(), srv.AlertsTotal(), srv.Restarts())
	if srv.GaveUp() {
		fmt.Fprintf(stdout, "gave up: restart budget (%d) exhausted\n", *maxRestarts)
	}
	if httpSrv == nil {
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "whodunit-serve: %v\n", err)
		return 1
	}
	return 0
}
