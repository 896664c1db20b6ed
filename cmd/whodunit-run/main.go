// Command whodunit-run runs one scenario of the batch corpus — the
// paper's four case studies (§8.1–8.4) at their pinned sizes, their
// mode and core-count variants, the API-level examples, the mesh and
// the replicated deployments — and prints its report:
//
//	whodunit-run apache                      # text report
//	whodunit-run -json tpcw > tpcw.json      # report JSON (whodunit-diff input)
//	whodunit-run -dot tpcw | dot -Tsvg       # stitched transaction graph
//	whodunit-run -folded mesh-deep | flamegraph.pl > flame.svg
//	whodunit-run apache:seed=7,mode=csprof   # seed and mode overrides
//	whodunit-run -list                       # the corpus
//
// The argument is a scenarios.ParseSpec run spec,
// name[:seed=N][,mode=off|csprof|whodunit|gprof] — the grammar of
// whodunit-diff's -run. Parameter sweeps of the case studies (InnoDB,
// servlet caching, worker and cache sizes) are whodunit-bench's
// figures. Exit status: 0 on success, 1 if the report cannot be
// written, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"whodunit/internal/cmdutil"
	"whodunit/internal/scenarios"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam, like whodunit-diff's.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whodunit-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	dot := fs.Bool("dot", false, "emit the stitched graph as Graphviz dot")
	folded := fs.Bool("folded", false, "emit folded stacks (flamegraph.pl input)")
	list := fs.Bool("list", false, "list the scenario corpus and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		scenarios.List(stdout, scenarios.KindBatch)
		return 0
	}
	// -list has returned, so every flag still set is an output form.
	if fs.NArg() != 1 || fs.NFlag() > 1 {
		fmt.Fprintln(stderr, "usage: whodunit-run [-json|-dot|-folded] name[:seed=N][,mode=M] (one spec, at most one output form; -list shows the corpus)")
		return 2
	}
	s, err := scenarios.ParseSpec(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "whodunit-run: %v\n", err)
		return 2
	}
	if err := cmdutil.EmitReport(stdout, s.Report(), *jsonOut, *dot, *folded); err != nil {
		fmt.Fprintf(stderr, "whodunit-run: %v\n", err)
		return 1
	}
	return 0
}
