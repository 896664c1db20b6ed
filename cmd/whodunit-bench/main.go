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
// (GOMAXPROCS=1 whodunit-bench).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"whodunit/internal/cmdutil"
	"whodunit/internal/experiments"
)

var experimentNames = []string{
	"validate", "fig8", "fig9", "fig10", "table1", "fig11", "fig12", "table2", "table3", "overheads", "mesh", "megascale",
}

func main() { os.Exit(run()) }

func run() int {
	quick := flag.Bool("quick", false, "reduced-scale run")
	only := flag.String("only", "", "run a single experiment: "+strings.Join(experimentNames, "|"))
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (captured after the run) to this file")
	mode := cmdutil.ModeFlag()
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "whodunit-bench: unexpected arguments %q (configuration is flag-only)\n", flag.Args())
		return 2
	}
	if *only != "" {
		known := false
		for _, n := range experimentNames {
			if *only == n {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "whodunit-bench: unknown experiment %q (want %s)\n",
				*only, strings.Join(experimentNames, "|"))
			return 2
		}
		// -mode only affects the case-study figures; an explicit -mode
		// combined with -only for any other experiment is a conflict (the
		// mode would silently do nothing), the same contract
		// whodunit-stitch enforces for its flag combinations.
		modeDependent := map[string]bool{"fig8": true, "fig9": true, "fig10": true}
		if !modeDependent[*only] {
			modeSet := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "mode" {
					modeSet = true
				}
			})
			if modeSet {
				fmt.Fprintf(os.Stderr, "whodunit-bench: -mode has no effect on experiment %q (only fig8, fig9 and fig10 honor it)\n", *only)
				return 2
			}
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "whodunit-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "whodunit-bench: cpuprofile: %v\n", err)
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
	jobs := all[:0:0]
	for _, j := range all {
		if *only == "" || *only == j.Name {
			jobs = append(jobs, j)
		}
	}
	if err := experiments.RunAll(os.Stdout, jobs); err != nil {
		fmt.Fprintf(os.Stderr, "whodunit-bench: %v\n", err)
		return 1
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "whodunit-bench: memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "whodunit-bench: memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}
