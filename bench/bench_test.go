package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func names(m map[string]stat) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs the whole benchmark at 1/50 scale in-process and checks
// what it emits against BENCHMARK.json and against itself.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-smoke", "-out", first}, &stdout, &stderr); status != 0 {
		t.Fatalf("bench -smoke exited %d\n%s%s", status, stdout.String(), stderr.String())
	}
	var doc document
	if err := readJSON(first, &doc); err != nil {
		t.Fatal(err)
	}

	contract := readBenchmarkJSON(t)
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %v, the benchmark's default is %v", contract.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\ndiffers from the benchmark's table\n%+v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's table:\n%v\n%v",
			defNames(contract.PerLayer), defNames(perLayer))
	}
	if len(contract.Workloads) != len(workloads) || len(doc.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json %d, emitted %d, defined %d",
			len(contract.Workloads), len(doc.Workloads), len(workloads))
	}

	byName := map[string]*result{}
	for i, r := range doc.Workloads {
		byName[r.Workload] = r
		if c := contract.Workloads[i]; c.Name != r.Workload || c.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, c.Name, c.Why, r.Workload, workloads[i].why)
		}
		if got, want := names(r.EndToEnd), defNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", r.Workload, got, want)
		}
		if got, want := names(r.PerLayer), defNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, want %v", r.Workload, got, want)
		}
		for _, m := range endToEnd {
			if s := r.EndToEnd[m.Name]; s.Unit != m.Unit || s.Median <= 0 {
				t.Errorf("%s: %s = %v %q, want a positive value in %q", r.Workload, m.Name, s.Median, s.Unit, m.Unit)
			}
		}
		for _, m := range perLayer {
			if s := r.PerLayer[m.Name]; s.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, want %q", r.Workload, m.Name, s.Unit, m.Unit)
			}
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v, failed %d of %d: %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Problems)
		}

		emulates := r.Workload == "apache"
		for _, name := range []string{"count.emu_cycles", "count.flows"} {
			if got := r.PerLayer[name].Median; (got != 0) != emulates {
				t.Errorf("%s: %s = %v; only apache emulates critical sections", r.Workload, name, got)
			}
		}
		if edges := r.PerLayer["count.edges"].Median; (edges != 0) == emulates {
			t.Errorf("%s: count.edges = %v; every workload but apache sends messages between stages", r.Workload, edges)
		}
		if windows := r.PerLayer["count.windows"].Median; (windows != 0) != (r.Workload == "serve") {
			t.Errorf("%s: count.windows = %v; only serve retires windows", r.Workload, windows)
		}
	}
	if a, b := byName["mega-serial"], byName["mega-sharded"]; a.Digest != b.Digest || a.Sim != b.Sim {
		t.Errorf("mega-sharded (%.12s %+v) differs from mega-serial (%.12s %+v)", b.Digest, b.Sim, a.Digest, a.Sim)
	}

	// A second run must reproduce every digest and simulated statistic.
	o := runOpts{seed: 1, scale: smokeScale, reps: 1, setups: 2}
	for _, r := range runEach(o, false, io.Discard).Workloads {
		if was := byName[r.Workload]; r.Digest != was.Digest || r.Sim != was.Sim {
			t.Errorf("%s: second run %.12s %+v, first %.12s %+v", r.Workload, r.Digest, r.Sim, was.Digest, was.Sim)
		}
	}

	// -compare: a file against itself is clean; op_ns worse by twice its
	// bound is not.
	compare := func(a, b string) int {
		return run([]string{"-compare", a, b}, io.Discard, io.Discard)
	}
	if status := compare(first, first); status != 0 {
		t.Errorf("-compare of a file with itself exited %d, want 0", status)
	}
	s := doc.Workloads[0].EndToEnd["op_ns"]
	// Quartiles at the median: a spread wider than the bound would make
	// the pair unresolved, which is not what this checks.
	s.Q1, s.Q3 = s.Median, s.Median
	doc.Workloads[0].EndToEnd["op_ns"] = s
	base := filepath.Join(dir, "base.json")
	if err := writeJSON(base, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if m.Name == "op_ns" {
			s.Median *= 1 + 2*m.Bound
		}
	}
	s.Q1, s.Q3 = s.Median, s.Median
	doc.Workloads[0].EndToEnd["op_ns"] = s
	doctored := filepath.Join(dir, "doctored.json")
	if err := writeJSON(doctored, &doc); err != nil {
		t.Fatal(err)
	}
	if status := compare(base, doctored); status != 1 {
		t.Errorf("-compare with op_ns worse by twice its bound exited %d, want 1", status)
	}
	if status := compare(base, filepath.Join(dir, "missing.json")); status != 2 {
		t.Errorf("-compare with a missing file exited %d, want 2", status)
	}
}

func TestJudge(t *testing.T) {
	tight := func(median float64) stat {
		return stat{Median: median, Q1: median * 0.99, Q3: median * 1.01, Min: median * 0.98, Max: median * 1.02, N: 5}
	}
	wide := func(median float64) stat {
		return stat{Median: median, Q1: median * 0.8, Q3: median * 1.2, Min: median * 0.7, Max: median * 1.3, N: 5}
	}
	for _, c := range []struct {
		name     string
		old, new stat
		want     verdict
	}{
		{"within the bound", tight(100), tight(105), same},
		{"worse than the bound", tight(100), tight(115), worse},
		{"better than the bound", tight(100), tight(85), better},
		{"spread wider than the bound", wide(100), tight(105), unresolved},
		{"every new reading beats every old one", wide(100), tight(50), better},
	} {
		if got := judge(c.old, c.new, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestExpectedPinned checks expected.json covers every workload and pins
// the sharded layout to the serial one.
func TestExpectedPinned(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := exp.lookup(w.name, 1, 1); !ok {
			t.Errorf("expected.json has no entry for %s at seed 1, scale 1", w.name)
		}
	}
	if a, b := exp.Workloads["mega-serial"], exp.Workloads["mega-sharded"]; a != b {
		t.Errorf("expected.json pins mega-sharded %+v apart from mega-serial %+v", b, a)
	}
	// The committed baseline must be a document -compare accepts.
	var doc document
	b, err := os.ReadFile(filepath.Join("results", "BENCH_11.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil || doc.Schema != schema || len(doc.Workloads) != len(workloads) {
		t.Errorf("results/BENCH_11.json: err %v, schema %q, %d workloads", err, doc.Schema, len(doc.Workloads))
	}
}
