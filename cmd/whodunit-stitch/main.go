// Command whodunit-stitch performs the post-mortem presentation phase
// (§7.1, Figure 7) as a standalone tool: it reads per-stage profile dumps
// (JSON files written with StageDump.Encode, one per stage) and assembles
// them into a unified Report whose transaction graph spans every stage,
// printed as text, Graphviz dot, or the Report's own JSON form.
//
//	whodunit-stitch web.json app.json db.json
//	whodunit-stitch -dot web.json app.json db.json > graph.dot
//	whodunit-stitch -json web.json app.json db.json > report.json
//	whodunit-stitch -folded web.json app.json db.json | flamegraph.pl > flame.svg
//
// With -diff the dump list is split on a "--" separator into two runs'
// dumps; each side is stitched into a Report and the structural diff
// between them is printed (text, or diff JSON with -json, or
// difffolded two-column stacks with -folded), with the same -threshold
// exit gating as whodunit-diff:
//
//	whodunit-stitch -diff before-web.json before-db.json -- after-web.json after-db.json
package main

import (
	"flag"
	"fmt"
	"os"

	"whodunit"
	"whodunit/internal/cmdutil"
)

func readDumps(paths []string) []whodunit.StageDump {
	var dumps []whodunit.StageDump
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "whodunit-stitch: %v\n", err)
			os.Exit(1)
		}
		d, err := whodunit.ReadStageDump(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "whodunit-stitch: %s: %v\n", path, err)
			os.Exit(1)
		}
		// JSON decoding ignores unknown fields, so a non-dump file (e.g. a
		// whole Report written with -json) decodes to an empty dump; catch
		// that instead of emitting an empty report.
		if d.Stage == "" {
			fmt.Fprintf(os.Stderr, "whodunit-stitch: %s: not a stage dump (no stage name; "+
				"expected a file written with StageDump.Encode)\n", path)
			os.Exit(1)
		}
		dumps = append(dumps, d)
	}
	return dumps
}

func main() {
	dot := flag.Bool("dot", false, "emit Graphviz dot instead of text")
	folded := flag.Bool("folded", false, "emit folded stacks (flamegraph.pl input) instead of text")
	diff := flag.Bool("diff", false, "split dumps on -- into two runs, stitch each, and diff the reports")
	threshold := flag.Int64("threshold", -1, "with -diff: exit 1 if the largest delta exceeds this (-1 disables)")
	jsonOut := cmdutil.JSONFlag()
	name := flag.String("name", "stitched", "application name for the report")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: whodunit-stitch [-dot|-json|-folded] [-name app] stage1.json stage2.json ...")
		fmt.Fprintln(os.Stderr, "       whodunit-stitch -diff [-threshold N] [-json|-folded] a1.json a2.json ... -- b1.json b2.json ...")
		os.Exit(2)
	}

	// Mode/flag combinations that would silently do the wrong thing are
	// errors: a -threshold without -diff would never gate, and -dot has
	// no diff rendering.
	if !*diff && *threshold >= 0 {
		fmt.Fprintln(os.Stderr, "whodunit-stitch: -threshold only gates with -diff")
		os.Exit(2)
	}
	if *diff && *dot {
		fmt.Fprintln(os.Stderr, "whodunit-stitch: -dot has no diff form (use text, -json or -folded with -diff)")
		os.Exit(2)
	}

	if *diff {
		args := flag.Args()
		sep := -1
		for i, a := range args {
			if a == "--" {
				sep = i
				break
			}
		}
		if sep <= 0 || sep == len(args)-1 {
			fmt.Fprintln(os.Stderr, "whodunit-stitch: -diff needs two dump lists separated by -- (both non-empty)")
			os.Exit(2)
		}
		a := whodunit.ReportFromDumps(*name, readDumps(args[:sep])...)
		b := whodunit.ReportFromDumps(*name, readDumps(args[sep+1:])...)
		d := whodunit.Diff(a, b)
		switch {
		case *folded:
			whodunit.FoldedDiff(a, b, os.Stdout)
		case *jsonOut:
			if err := d.JSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "whodunit-stitch: %v\n", err)
				os.Exit(1)
			}
		default:
			d.Text(os.Stdout)
		}
		if *threshold >= 0 && d.Exceeds(*threshold) {
			fmt.Fprintf(os.Stderr, "whodunit-stitch: max delta %d exceeds threshold %d\n", d.MaxDelta(), *threshold)
			os.Exit(1)
		}
		return
	}

	report := whodunit.ReportFromDumps(*name, readDumps(flag.Args())...)
	if err := cmdutil.EmitReport(os.Stdout, report, *jsonOut, *dot, *folded); err != nil {
		fmt.Fprintf(os.Stderr, "whodunit-stitch: %v\n", err)
		os.Exit(1)
	}
}
