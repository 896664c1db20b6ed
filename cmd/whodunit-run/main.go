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
//	whodunit-run mesh-deep:write-trace=t.jsonl   # record the generated trace, then replay it
//	whodunit-run mesh-steady:trace=t.jsonl   # replay a recorded trace on the 4-tier mesh
//	whodunit-run -list                       # the corpus
//
// The argument is a scenarios.ParseSpec run spec,
// name[:seed=N][,mode=off|csprof|whodunit|gprof][,trace=F|,write-trace=F]
// — the grammar of whodunit-diff's -run; the trace keys are the mesh
// scenarios' (mesh-steady, mesh-hot-key, mesh-deep). Parameter sweeps
// of the case studies (InnoDB, servlet caching, worker and cache sizes)
// are whodunit-bench's figures. Exit status: 0 on success, 1 if the
// report cannot be written, 2 on a usage or trace-file error.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"whodunit/internal/cmdutil"
	"whodunit/internal/scenarios"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam, like whodunit-diff's.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whodunit-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := cmdutil.OutputFlags(fs)
	list := fs.Bool("list", false, "list the scenario corpus and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		scenarios.List(stdout)
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: whodunit-run [-json|-dot|-folded] name[:seed=N][,mode=M][,trace=F|,write-trace=F] (one spec; -list shows the corpus)")
		return 2
	}
	if err := out.Check(); err != nil {
		fmt.Fprintf(stderr, "whodunit-run: %v\n", err)
		return 2
	}
	s, err := scenarios.ParseSpec(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "whodunit-run: %v\n", err)
		return 2
	}
	rep, err := s.Run(log.New(stderr, "whodunit-run: ", 0))
	if err != nil {
		fmt.Fprintf(stderr, "whodunit-run: %v\n", err)
		return 2
	}
	if err := out.Emit(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "whodunit-run: %v\n", err)
		return 1
	}
	return 0
}
