// Command whodunit-diff compares two Whodunit reports — the §9
// regression-hunting workflow ("run A vs run B, explain the delta") as
// a tool. The two sides are either report JSON files (written with
// -json by whodunit-run or whodunit-stitch) or fresh runs of corpus
// scenarios named with -run specs:
//
//	whodunit-diff before.json after.json
//	whodunit-diff -run apache -run apache:seed=7
//	whodunit-diff -run tpcw -run tpcw:mode=csprof
//	whodunit-diff -json a.json b.json > delta.json
//	whodunit-diff -folded a.json b.json | flamegraph.pl --negate > diff.svg
//	whodunit-diff -threshold 0 a.json b.json   # CI gate: exit 1 on any delta
//	whodunit-diff -run mesh-deep:trace=a.jsonl -run mesh-deep:trace=b.jsonl
//
// A -run spec is whodunit-run's argument,
// scenario[:seed=N][,mode=off|csprof|whodunit|gprof][,trace=F|,write-trace=F]
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
	"log"
	"os"

	"whodunit"
	"whodunit/internal/scenarios"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam: it parses args on its
// own FlagSet, writes to the given streams, and returns the process
// exit status (0 in-bounds, 1 threshold exceeded, 2 usage/IO error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whodunit-diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var runs []string
	fs.Func("run", "scenario run spec (repeat twice): name[:seed=N][,mode=M][,trace=F|,write-trace=F]", func(spec string) error {
		runs = append(runs, spec)
		return nil
	})
	threshold := fs.Int64("threshold", -1, "exit 1 if the largest sample/count delta exceeds this (-1 disables gating)")
	jsonOut := fs.Bool("json", false, "emit the diff as JSON instead of text")
	folded := fs.Bool("folded", false, "emit two-column folded stacks (difffolded format) for differential flame graphs")
	list := fs.Bool("list", false, "list the scenario corpus and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *folded {
		fmt.Fprintln(stderr, "whodunit-diff: -json and -folded conflict: at most one output form")
		return 2
	}

	if *list {
		scenarios.List(stdout)
		return 0
	}

	var sides [2]*whodunit.Report
	var err error
	switch {
	case len(runs) == 2 && fs.NArg() == 0:
		warn := log.New(stderr, "whodunit-diff: ", 0)
		for i, spec := range runs {
			var s scenarios.Scenario
			if s, err = scenarios.ParseSpec(spec); err != nil {
				break
			}
			if sides[i], err = s.Run(warn); err != nil {
				break
			}
		}
	case len(runs) == 0 && fs.NArg() == 2:
		for i, path := range fs.Args() {
			if sides[i], err = loadReport(path); err != nil {
				break
			}
		}
	default:
		fmt.Fprintln(stderr, "usage: whodunit-diff [-threshold N] [-json|-folded] a.json b.json")
		fmt.Fprintln(stderr, "       whodunit-diff [-threshold N] [-json|-folded] -run specA -run specB")
		fmt.Fprintln(stderr, "       whodunit-diff -list")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "whodunit-diff: %v\n", err)
		return 2
	}

	a, b := sides[0], sides[1]
	d := whodunit.Diff(a, b)
	out := bufio.NewWriter(stdout)
	switch {
	case *folded:
		whodunit.FoldedDiff(a, b, out)
	case *jsonOut:
		err = d.JSON(out)
	default:
		d.Text(out)
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintf(stderr, "whodunit-diff: write: %v\n", err)
		return 2
	}
	if *threshold >= 0 && d.Exceeds(*threshold) {
		fmt.Fprintf(stderr, "whodunit-diff: max delta %d exceeds threshold %d\n", d.MaxDelta(), *threshold)
		return 1
	}
	return 0
}

// loadReport reads one report JSON side.
func loadReport(path string) (*whodunit.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := whodunit.ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if rep.App == "" && len(rep.Stages) == 0 {
		return nil, fmt.Errorf("%s: not a report (expected a file written with -json)", path)
	}
	return rep, nil
}
