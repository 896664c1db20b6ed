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
// To compare two runs' dumps, stitch each side to report JSON and diff
// the reports with whodunit-diff:
//
//	whodunit-stitch -json before-web.json before-db.json > before.json
//	whodunit-stitch -json after-web.json after-db.json > after.json
//	whodunit-diff before.json after.json
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
	jsonOut := cmdutil.JSONFlag()
	name := flag.String("name", "stitched", "application name for the report")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: whodunit-stitch [-dot|-json|-folded] [-name app] stage1.json stage2.json ...")
		os.Exit(2)
	}

	report := whodunit.ReportFromDumps(*name, readDumps(flag.Args())...)
	if err := cmdutil.EmitReport(os.Stdout, report, *jsonOut, *dot, *folded); err != nil {
		fmt.Fprintf(os.Stderr, "whodunit-stitch: %v\n", err)
		os.Exit(1)
	}
}
