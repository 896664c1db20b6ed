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
//
// Exit status: 0 on success, 1 if a dump cannot be read or the report
// cannot be written, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"whodunit"
	"whodunit/internal/cmdutil"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam, like whodunit-run's.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whodunit-stitch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := cmdutil.OutputFlags(fs)
	name := fs.String("name", "stitched", "application name for the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: whodunit-stitch [-dot|-json|-folded] [-name app] stage1.json stage2.json ...")
		return 2
	}
	if err := out.Check(); err != nil {
		fmt.Fprintf(stderr, "whodunit-stitch: %v\n", err)
		return 2
	}
	dumps, err := readDumps(fs.Args())
	if err == nil {
		err = out.Emit(stdout, whodunit.ReportFromDumps(*name, dumps...))
	}
	if err != nil {
		fmt.Fprintf(stderr, "whodunit-stitch: %v\n", err)
		return 1
	}
	return 0
}

func readDumps(paths []string) ([]whodunit.StageDump, error) {
	var dumps []whodunit.StageDump
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		d, err := whodunit.ReadStageDump(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		// JSON decoding ignores unknown fields, so a non-dump file (e.g. a
		// whole Report written with -json) decodes to an empty dump; catch
		// that instead of emitting an empty report.
		if d.Stage == "" {
			return nil, fmt.Errorf("%s: not a stage dump (no stage name; "+
				"expected a file written with StageDump.Encode)", path)
		}
		dumps = append(dumps, d)
	}
	return dumps, nil
}
