// Package cmdutil holds the flag and output plumbing shared by the
// cmd/whodunit-* binaries, so mode parsing, the report output forms and
// report emission have a single implementation.
package cmdutil

import (
	"bufio"
	"errors"
	"flag"
	"io"

	"whodunit"
	"whodunit/internal/profiler"
)

// ModeFlag registers the standard -mode flag on fs (default whodunit,
// parsed through profiler.ParseMode) and returns a pointer to the
// chosen mode.
func ModeFlag(fs *flag.FlagSet) *profiler.Mode {
	m := profiler.ModeWhodunit
	fs.Var(&m, "mode", "profiling mode: off|csprof|whodunit|gprof")
	return &m
}

// Output is the report output form a tool's -json, -dot and -folded
// flags choose: at most one of them, and text when none is set.
type Output struct{ json, dot, folded bool }

// OutputFlags registers -json, -dot and -folded on fs.
func OutputFlags(fs *flag.FlagSet) *Output {
	o := new(Output)
	fs.BoolVar(&o.json, "json", false, "emit the report as JSON instead of text")
	fs.BoolVar(&o.dot, "dot", false, "emit the stitched graph as Graphviz dot")
	fs.BoolVar(&o.folded, "folded", false, "emit folded stacks (flamegraph.pl input)")
	return o
}

// Check returns an error naming the flags when more than one output
// form is set; a tool calls it before running anything.
func (o *Output) Check() error {
	if o.json && o.dot || o.dot && o.folded || o.folded && o.json {
		return errors.New("-json, -dot and -folded conflict: at most one output form")
	}
	return nil
}

// Emit writes r to w in the chosen form: report JSON (whodunit-diff
// input), the stitched graph as Graphviz dot, folded stacks
// (flamegraph.pl input), or text. Every form goes through one buffered
// writer, so a failed write is returned whichever form was chosen.
func (o *Output) Emit(w io.Writer, r *whodunit.Report) error {
	bw := bufio.NewWriter(w)
	switch {
	case o.json:
		if err := r.JSON(bw); err != nil {
			return err
		}
	case o.dot:
		r.DOT(bw)
	case o.folded:
		r.Folded(bw)
	default:
		r.Text(bw)
	}
	return bw.Flush()
}
