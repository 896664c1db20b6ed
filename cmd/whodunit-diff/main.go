// Command whodunit-diff compares two Whodunit reports — the §9
// regression-hunting workflow ("run A vs run B, explain the delta") as
// a tool. The two sides are either report JSON files (written with
// -json by whodunit-run, whodunit-mesh or whodunit-stitch) or fresh runs
// of corpus scenarios named with -run specs:
//
//	whodunit-diff before.json after.json
//	whodunit-diff -run apache -run apache:seed=7
//	whodunit-diff -run tpcw -run tpcw:mode=csprof
//	whodunit-diff -json a.json b.json > delta.json
//	whodunit-diff -folded a.json b.json | flamegraph.pl --negate > diff.svg
//	whodunit-diff -threshold 0 a.json b.json   # CI gate: exit 1 on any delta
//
// A -run spec is scenario[:seed=N][,mode=off|csprof|whodunit|gprof]
// (see -list for the scenario corpus). Exit status is part of the
// contract: 0 means the diff is within bounds (or informational), 1
// means -threshold was set and the largest sample/count delta exceeds
// it, 2 means a usage or IO error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"whodunit"
	"whodunit/internal/scenarios"
)

type runSpecs []string

func (r *runSpecs) String() string { return fmt.Sprint([]string(*r)) }
func (r *runSpecs) Set(s string) error {
	*r = append(*r, s)
	return nil
}

// failure aborts run via panic; run recovers it into exit status 2.
type failure string

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam: it parses args on its
// own FlagSet, writes to the given streams, and returns the process
// exit status (0 in-bounds, 1 threshold exceeded, 2 usage/IO error).
func run(args []string, stdout, stderr io.Writer) (status int) {
	fail := func(format string, a ...any) {
		panic(failure(fmt.Sprintf("whodunit-diff: "+format, a...)))
	}
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(failure)
			if !ok {
				panic(r)
			}
			fmt.Fprintln(stderr, string(msg))
			status = 2
		}
	}()

	fs := flag.NewFlagSet("whodunit-diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var runs runSpecs
	fs.Var(&runs, "run", "scenario run spec (repeat twice): name[:seed=N][,mode=M]")
	threshold := fs.Int64("threshold", -1, "exit 1 if the largest sample/count delta exceeds this (-1 disables gating)")
	jsonOut := fs.Bool("json", false, "emit the diff as JSON instead of text")
	folded := fs.Bool("folded", false, "emit two-column folded stacks (difffolded format) for differential flame graphs")
	list := fs.Bool("list", false, "list the scenario corpus and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		scenarios.List(stdout, scenarios.KindBatch)
		return 0
	}

	loadReport := func(path string) *whodunit.Report {
		f, err := os.Open(path)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		rep, err := whodunit.ReadReport(f)
		if err != nil {
			fail("%s: %v", path, err)
		}
		if rep.App == "" && len(rep.Stages) == 0 {
			fail("%s: not a report (expected a file written with -json)", path)
		}
		return rep
	}

	var a, b *whodunit.Report
	switch {
	case len(runs) == 2 && fs.NArg() == 0:
		reps := make([]*whodunit.Report, 2)
		for i, spec := range runs {
			s, err := scenarios.ParseSpec(spec)
			if err != nil {
				fail("%v", err)
			}
			reps[i] = s.Report()
		}
		a, b = reps[0], reps[1]
	case len(runs) == 0 && fs.NArg() == 2:
		a, b = loadReport(fs.Arg(0)), loadReport(fs.Arg(1))
	default:
		fmt.Fprintln(stderr, "usage: whodunit-diff [-threshold N] [-json|-folded] a.json b.json")
		fmt.Fprintln(stderr, "       whodunit-diff [-threshold N] [-json|-folded] -run specA -run specB")
		fmt.Fprintln(stderr, "       whodunit-diff -list")
		return 2
	}

	d := whodunit.Diff(a, b)
	out := bufio.NewWriter(stdout)
	switch {
	case *folded:
		whodunit.FoldedDiff(a, b, out)
	case *jsonOut:
		if err := d.JSON(out); err != nil {
			fail("%v", err)
		}
	default:
		d.Text(out)
	}
	if err := out.Flush(); err != nil {
		fail("write: %v", err)
	}
	if *threshold >= 0 && d.Exceeds(*threshold) {
		fmt.Fprintf(stderr, "whodunit-diff: max delta %d exceeds threshold %d\n", d.MaxDelta(), *threshold)
		return 1
	}
	return 0
}
