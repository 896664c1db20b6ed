// Command bench is the repository's benchmark: six simulator workloads,
// seven end-to-end metrics per workload, about seventy per-layer metrics
// from a traced run, and a check that every run produced the pinned
// report bytes. README.md in this directory explains the choices.
//
//	go run ./bench                          # every workload, untraced then traced
//	go run ./bench -workload tpcw           # one workload, end-to-end metrics
//	go run ./bench -workload tpcw -trace 1  # one workload, per-layer metrics
//	go run ./bench -out new.json && go run ./bench -compare old.json new.json
//
// This is a simulator: host time is what the benchmark measures and what
// an optimisation may change; simulated statistics must repeat exactly.
// The repository holds no measurements from real hardware, so the model
// is unvalidated and no error figure is given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

const (
	schema = "whodunit-bench/v2"
	// defaultSeconds is BENCHMARK.json's run_seconds: the measurement
	// budget of one run's timed repetitions.
	defaultSeconds = 11
	smokeScale     = 1.0 / 50
	expectedPath   = "bench/expected.json"
)

// document is the result file -out writes and -compare reads.
type document struct {
	Schema string `json:"schema"`
	// Model says what the simulated statistics can be trusted for.
	Model     string    `json:"model"`
	Workloads []*result `json:"workloads"`
}

const modelNote = "unvalidated: the repository holds no measurements from real hardware, so no error figure is given; " +
	"all times are host time, sim.* are simulated statistics and must repeat exactly"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam. Exit status: 0 all
// correct (or -compare found nothing worse), 1 an output check failed
// (or -compare found a regression), 2 usage or IO error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in-process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed of every input generator and model")
	seconds := fs.Float64("seconds", defaultSeconds, "measurement budget of the timed repetitions, in seconds")
	traceOn := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics (traced run)")
	reps := fs.Int("reps", 0, "exactly this many timed repetitions instead of filling -seconds")
	out := fs.String("out", "", "write the full result as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the traced run's spans as JSON to this file")
	smoke := fs.Bool("smoke", false, "scale 1/50, one repetition, every workload in-process: a seconds-long self-test")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	update := fs.Bool("update-expected", false, "rewrite "+expectedPath+" from a run at seed 1, scale 1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fail(fmt.Errorf("-trace takes 0 or 1"))
	}

	pinProcs()
	o := runOpts{seed: *seed, scale: 1, seconds: *seconds, reps: *reps, setups: 3,
		analyzeBatch: 50 * time.Millisecond}
	if *smoke {
		o.scale, o.reps, o.setups, o.analyzeBatch = smokeScale, 1, 2, 0
		calibScale = smokeScale
	}
	if !*update {
		exp, err := loadExpected()
		if err != nil {
			return fail(err)
		}
		o.expected = exp
	}

	var doc *document
	switch {
	case *update:
		o.reps = 1
		doc = runEach(o, false, stdout)
		if err := writeExpected(expectedPath, o.seed, o.scale, doc.Workloads); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "wrote", expectedPath)
	case *name != "":
		w, ok := workloadNamed(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		var res *result
		if *traceOn == 1 {
			res = traced(w, o, runLayers(o.scale))
		} else {
			res = measure(w, o)
		}
		printResult(stdout, res)
		doc = &document{Workloads: []*result{res}}
		defer printContractLine(stdout, res, *traceOn == 1)
	case *smoke:
		doc = runEach(o, true, stdout)
	default:
		var err error
		if doc, err = runChildren(o, stdout, stderr); err != nil {
			return fail(err)
		}
	}
	doc.Schema, doc.Model = schema, modelNote
	fmt.Fprintln(stdout, "model:", modelNote)
	fmt.Fprintln(stdout, "load generation: arrivals run on the virtual clock, so generator lateness is 0 by construction")

	if *traceOut != "" {
		var spans []span
		for _, r := range doc.Workloads {
			spans = append(spans, r.Spans...)
		}
		if err := writeJSON(*traceOut, spans); err != nil {
			return fail(err)
		}
	}
	status := 0
	for _, r := range doc.Workloads {
		if *name == "" {
			// The full document carries numbers only; a single
			// workload's file keeps its spans for the parent to collect.
			r.Spans = nil
		}
		if !r.Correct {
			status = 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			return fail(err)
		}
	}
	return status
}

// runEach measures every workload in this process, one after another.
// Heap state and peak RSS then carry over between workloads, so this is
// for the smoke test and -update-expected, not for numbers.
func runEach(o runOpts, withTrace bool, stdout io.Writer) *document {
	doc := &document{}
	var layers map[string]stat
	if withTrace {
		layers = runLayers(o.scale)
	}
	for _, w := range workloads {
		res := measure(w, o)
		if withTrace {
			res.mergeTraced(traced(w, o, layers))
		}
		printResult(stdout, res)
		doc.Workloads = append(doc.Workloads, res)
	}
	return doc
}

// mergeTraced folds the traced run of the same workload into the
// untraced result.
func (r *result) mergeTraced(t *result) {
	r.PerLayer, r.Spans = t.PerLayer, t.Spans
	r.Attempted += t.Attempted
	r.Failed += t.Failed
	if !t.Correct {
		r.Correct = false
		r.Problems = append(r.Problems, t.Problems...)
	}
}

// runChildren measures every workload in a child process of its own,
// one after another, untraced then traced, so heap state and peak RSS
// are per workload.
func runChildren(o runOpts, stdout, stderr io.Writer) (*document, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "whodunit-bench-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())

	child := func(w workloadDef, traceFlag string) (*result, error) {
		cmd := exec.Command(self,
			"-workload", w.name, "-trace", traceFlag, "-out", tmp.Name(),
			"-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-reps", strconv.Itoa(o.reps))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		// Exit status 1 is a failed output check: the result file is
		// still written and says what failed.
		if err := cmd.Run(); err != nil && cmd.ProcessState.ExitCode() != 1 {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		var doc document
		if err := readJSON(tmp.Name(), &doc); err != nil {
			return nil, err
		}
		if len(doc.Workloads) != 1 {
			return nil, fmt.Errorf("workload %s: child wrote %d results", w.name, len(doc.Workloads))
		}
		return doc.Workloads[0], nil
	}
	doc := &document{}
	for _, w := range workloads {
		res, err := child(w, "0")
		if err != nil {
			return nil, err
		}
		t, err := child(w, "1")
		if err != nil {
			return nil, err
		}
		res.mergeTraced(t)
		doc.Workloads = append(doc.Workloads, res)
	}
	return doc, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// printResult prints every metric of one result by name, with its unit.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s: op = %s; %s; seed %d, scale %g\n", r.Workload, r.Op, r.Load, r.Seed, r.Scale)
	fmt.Fprintf(w, "   ops %d  attempted %d  failed %d  correct %v  digest %.16s\n",
		r.Ops, r.Attempted, r.Failed, r.Correct, r.Digest)
	fmt.Fprintf(w, "   sim.completed %d  sim.elapsed_s %.9f  sim.samples %d\n",
		r.Sim.Completed, r.Sim.ElapsedS, r.Sim.Samples)
	fmt.Fprintf(w, "   host.calib_ns %.0f  host.calib_min_ns %.0f  host.discarded_reps %d  gomaxprocs %d  host_cpus %d  go_version %s\n",
		r.Host.CalibNS, r.Host.CalibMinNS, r.Host.DiscardedReps, r.Host.GOMAXPROCS, r.Host.HostCPUs, r.Host.GoVersion)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "   PROBLEM:", p)
	}
	printStats := func(prefix string, m map[string]stat) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := m[name]
			fmt.Fprintf(w, "   %-32s %14.4f %-6s q1 %.4f q3 %.4f min %.4f max %.4f n %d\n",
				prefix+name, s.Median, s.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
	}
	printStats("", r.EndToEnd)
	printStats("as_measured.", r.AsMeasured)
	printStats("", r.PerLayer)
}

// printContractLine prints, as the last line of standard output, the one
// JSON object the benchmark driver reads: the medians of every
// end-to-end metric (untraced run) or every per-layer metric (traced).
func printContractLine(w io.Writer, r *result, withTrace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if withTrace {
		src = r.PerLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, s := range src {
		line.Metrics[name] = value{s.Median, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintln(w, string(b))
}
