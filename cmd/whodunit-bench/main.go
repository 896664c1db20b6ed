// Command whodunit-bench regenerates every table and figure of the
// paper's evaluation (§8, §9). Run with -quick for a fast, reduced-scale
// pass (the same scale the test suite uses) or without flags for the
// full paper-scale sweep. -mode switches the case-study figures
// (fig8/fig9/fig10) to a different profiling mode for baseline
// comparisons. -cpuprofile/-memprofile capture pprof profiles of the
// bench run itself, for hunting the harness's own hot spots.
//
// Experiments (and the client-count sweeps inside them) run across
// GOMAXPROCS workers; every simulation draws from explicitly seeded RNG
// streams, so the output is identical to a serial run
// (GOMAXPROCS=1 whodunit-bench). Exit status: 0 on success, 1 if the
// output or a profile cannot be written, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"whodunit/internal/cmdutil"
	"whodunit/internal/experiments"
)

var experimentNames = []string{
	"validate", "fig8", "fig9", "fig10", "table1", "fig11", "fig12", "table2", "table3", "overheads", "mesh", "megascale",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam, like whodunit-run's.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whodunit-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced-scale run")
	only := fs.String("only", "", "run a single experiment: "+strings.Join(experimentNames, "|"))
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (captured after the run) to this file")
	mode := cmdutil.ModeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "whodunit-bench: unexpected arguments %q (configuration is flag-only)\n", fs.Args())
		return 2
	}
	if *only != "" && !slices.Contains(experimentNames, *only) {
		fmt.Fprintf(stderr, "whodunit-bench: -only: unknown experiment %q (want %s)\n",
			*only, strings.Join(experimentNames, "|"))
		return 2
	}
	// -mode only affects the case-study figures; an explicit -mode
	// combined with -only for any other experiment is a conflict (the
	// mode would silently do nothing), as whodunit-run and
	// whodunit-stitch reject a second output form.
	modeSet := false
	fs.Visit(func(f *flag.Flag) { modeSet = modeSet || f.Name == "mode" })
	if modeSet && *only != "" && !slices.Contains([]string{"fig8", "fig9", "fig10"}, *only) {
		fmt.Fprintf(stderr, "whodunit-bench: -mode has no effect on experiment %q (only fig8, fig9 and fig10 honor it)\n", *only)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "whodunit-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "whodunit-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	sc := experiments.FullScale
	tp := experiments.FullTPCW
	mg := experiments.FullMega
	if *quick {
		sc = experiments.QuickScale
		tp = experiments.QuickTPCW
		mg = experiments.QuickMega
	}

	all := []experiments.Job{
		{Name: "validate", Run: func(w io.Writer) { experiments.FlowValidation().Render(w) }},
		{Name: "fig8", Run: func(w io.Writer) { experiments.Fig8Apache(sc, *mode).Render(w) }},
		{Name: "fig9", Run: func(w io.Writer) { experiments.Fig9Squid(sc, *mode).Render(w) }},
		{Name: "fig10", Run: func(w io.Writer) { experiments.Fig10Haboob(sc, *mode).Render(w) }},
		{Name: "table1", Run: func(w io.Writer) { experiments.Table1TPCW(tp).Render(w) }},
		{Name: "fig11", Run: func(w io.Writer) { experiments.Fig11ResponseTimes(tp).Render(w) }},
		{Name: "fig12", Run: func(w io.Writer) { experiments.Fig12Throughput(tp).Render(w) }},
		{Name: "table2", Run: func(w io.Writer) { experiments.Table2Overhead(tp).Render(w) }},
		{Name: "table3", Run: func(w io.Writer) { experiments.Table3Emulation().Render(w) }},
		{Name: "overheads", Run: func(w io.Writer) { experiments.ServerOverheads(sc).Render(w) }},
		{Name: "mesh", Run: func(w io.Writer) { experiments.MeshTraffic(sc).Render(w) }},
		{Name: "megascale", Run: func(w io.Writer) { experiments.MegaScale(mg).Render(w) }},
	}
	if *only != "" {
		all = slices.DeleteFunc(all, func(j experiments.Job) bool { return j.Name != *only })
	}
	if err := experiments.RunAll(stdout, all); err != nil {
		fmt.Fprintf(stderr, "whodunit-bench: %v\n", err)
		return 1
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "whodunit-bench: memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "whodunit-bench: memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}
