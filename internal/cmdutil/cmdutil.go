// Package cmdutil holds the flag and output plumbing shared by the
// cmd/whodunit-* binaries, so mode parsing and report emission have a
// single implementation.
package cmdutil

import (
	"bufio"
	"flag"
	"io"

	"whodunit"
	"whodunit/internal/profiler"
)

// ModeFlag registers the standard -mode flag (default whodunit, parsed
// through profiler.ParseMode) and returns a pointer to the chosen mode.
func ModeFlag() *profiler.Mode {
	m := profiler.ModeWhodunit
	flag.Var(&m, "mode", "profiling mode: off|csprof|whodunit|gprof")
	return &m
}

// JSONFlag registers the standard -json flag.
func JSONFlag() *bool {
	return flag.Bool("json", false, "emit the report as JSON instead of text")
}

// EmitReport writes r to w in the form a tool's output flags select:
// report JSON (whodunit-diff input), the stitched graph as Graphviz
// dot, folded stacks (flamegraph.pl input), or text when none is set.
// The first set flag wins; a tool that rejects combinations does so
// before running anything. Every form goes through one buffered writer,
// so a failed write is returned whichever form was chosen.
func EmitReport(w io.Writer, r *whodunit.Report, jsonOut, dot, folded bool) error {
	bw := bufio.NewWriter(w)
	switch {
	case jsonOut:
		if err := r.JSON(bw); err != nil {
			return err
		}
	case dot:
		r.DOT(bw)
	case folded:
		r.Folded(bw)
	default:
		r.Text(bw)
	}
	return bw.Flush()
}
