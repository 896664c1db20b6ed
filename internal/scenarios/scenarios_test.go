// The scenario-corpus regression harness: every corpus scenario's
// Report is pinned bit-for-bit (Text and JSON goldens, regenerable with
// -update), and each fresh run is additionally compared to its decoded
// golden through the Diff engine — so a regression fails twice: once as
// a byte drift and once as a structural CCT/crosstalk/flow/graph delta
// rendered in the failure message.
//
// The four legacy goldens (apache, squid, haboob, tpcw) are the
// bit-identical continuation of the retired internal/apps/golden files.
package scenarios_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"whodunit"
	"whodunit/internal/scenarios"
)

var update = flag.Bool("update", false, "rewrite the golden files")

func goldenPath(name, kind string) string {
	return filepath.Join("testdata", name+"."+kind+".golden")
}

func readGolden(t *testing.T, name, kind string) []byte {
	t.Helper()
	want, err := os.ReadFile(goldenPath(name, kind))
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/scenarios -update` to capture): %v", err)
	}
	return want
}

func checkBytes(t *testing.T, name, kind string, got []byte) {
	t.Helper()
	path := goldenPath(name, kind)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, name, kind)
	if !bytes.Equal(got, want) {
		dump := filepath.Join(os.TempDir(), "whodunit-scenario-"+name+"."+kind+".got")
		_ = os.WriteFile(dump, got, 0o644)
		t.Errorf("%s %s drifted from the pinned golden (%d bytes vs %d; got written to %s)",
			name, kind, len(got), len(want), dump)
	}
}

// render produces the two pinned forms of a report.
func render(t *testing.T, rep *whodunit.Report) (jsonBytes, textBytes []byte) {
	t.Helper()
	var js, txt bytes.Buffer
	if err := rep.JSON(&js); err != nil {
		t.Fatal(err)
	}
	rep.Text(&txt)
	return js.Bytes(), txt.Bytes()
}

// TestCorpusGoldens pins every scenario bit-for-bit and, independently,
// asserts the structural diff against the decoded golden is empty and
// that the decoded golden re-encodes to its own bytes.
func TestCorpusGoldens(t *testing.T) {
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rep := s.Report()
			js, txt := render(t, rep)
			checkBytes(t, s.Name, "json", js)
			checkBytes(t, s.Name, "text", txt)
			if *update {
				return
			}
			want := readGolden(t, s.Name, "json")
			golden, err := whodunit.ReadReport(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			// The golden round-trips: decoding and re-encoding it gives its
			// bytes back.
			if back, _ := render(t, golden); !bytes.Equal(back, want) {
				t.Errorf("%s golden re-encodes to %d bytes, not its own %d", s.Name, len(back), len(want))
			}
			if d := whodunit.Diff(golden, rep); !d.Empty() {
				var buf bytes.Buffer
				d.Text(&buf)
				t.Errorf("fresh %s run diverges structurally from its golden:\n%s", s.Name, buf.String())
			}
		})
	}
}

// TestDiffSelfEmptyCorpus: Diff(r, r) is empty for every corpus report
// — the reflexivity half of the diff-engine property tests, run over
// the real corpus rather than synthetic trees.
func TestDiffSelfEmptyCorpus(t *testing.T) {
	for _, s := range scenarios.All() {
		f, err := os.Open(goldenPath(s.Name, "json"))
		if err != nil {
			t.Fatalf("%s: %v (run -update first)", s.Name, err)
		}
		rep, err := whodunit.ReadReport(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		if d := whodunit.Diff(rep, rep); !d.Empty() {
			t.Errorf("%s: Diff(r, r) not empty: max delta %d", s.Name, d.MaxDelta())
		}
	}
}

// TestReportFromDumpsSharesMatchRun: a report rebuilt from a corpus
// report's own stage dumps (what whodunit-stitch does with dump files)
// lists every stage's context shares exactly as the run's report does,
// in the same order.
func TestReportFromDumpsSharesMatchRun(t *testing.T) {
	for _, s := range scenarios.All() {
		f, err := os.Open(goldenPath(s.Name, "json"))
		if err != nil {
			t.Fatalf("%s: %v (run -update first)", s.Name, err)
		}
		rep, err := whodunit.ReadReport(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		dumps := make([]whodunit.StageDump, len(rep.Stages))
		for i := range rep.Stages {
			dumps[i] = rep.Stages[i].Dump
		}
		back := whodunit.ReportFromDumps(rep.App, dumps...)
		for i, sr := range rep.Stages {
			if got := back.Stages[i].Shares; !reflect.DeepEqual(got, sr.Shares) {
				t.Errorf("%s stage %s: shares from dumps %+v\nrun's report %+v", s.Name, sr.Stage, got, sr.Shares)
			}
		}
	}
}

// TestCorpusUnderFaultPlan reruns the API-level corpus under a seeded
// message-delay fault plan and asserts the faulted reports are
// bit-identical across repeated serial runs AND across the RunApps
// parallel fan-out — the bit-reproducibility acceptance bar extended to
// injected faults. Delays (not drops) keep every scenario's bounded
// worker loops live.
func TestCorpusUnderFaultPlan(t *testing.T) {
	plan := &whodunit.FaultPlan{
		Seed:     3,
		Messages: []whodunit.MessageFault{{DelayProb: 0.25, Delay: 2 * whodunit.Millisecond}},
	}
	var list []scenarios.Scenario
	for _, s := range scenarios.All() {
		if s.MakeApp != nil {
			list = append(list, s)
		}
	}
	faultedApps := func() []*whodunit.App {
		apps := make([]*whodunit.App, len(list))
		for i, s := range list {
			apps[i] = s.MakeApp(s.Defaults)
			apps[i].SetFaults(plan)
		}
		return apps
	}
	renderOne := func(rep *whodunit.Report) []byte {
		var buf bytes.Buffer
		if err := rep.JSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	runSerial := func() [][]byte {
		out := make([][]byte, len(list))
		for i, app := range faultedApps() {
			out[i] = renderOne(app.Run())
		}
		return out
	}
	a, b := runSerial(), runSerial()
	parallel := whodunit.RunApps(faultedApps()...)
	injected := false
	for i, s := range list {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("%s: two serial faulted runs differ (%d vs %d bytes)", s.Name, len(a[i]), len(b[i]))
		}
		if got := renderOne(parallel[i]); !bytes.Equal(a[i], got) {
			t.Errorf("%s: RunApps-parallel faulted run differs from serial (%d vs %d bytes)",
				s.Name, len(a[i]), len(got))
		}
		if parallel[i].Faults != nil {
			injected = true
		}
	}
	if !injected {
		t.Fatal("the fault plan injected nothing across the whole corpus")
	}
}

// TestRunAllDeterminism runs the whole corpus serially and through the
// parallel RunAll fan-out (one par.Do over Scenario.Report) and asserts
// every pair of reports is bit-identical and diff-empty — PR 2's
// serial-vs-parallel bit-identity discipline extended to the corpus.
func TestRunAllDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus double-run is not short")
	}
	list := scenarios.All()

	prev := runtime.GOMAXPROCS(1)
	serial := scenarios.RunAll(list)
	runtime.GOMAXPROCS(prev)
	parallel := scenarios.RunAll(list)

	for i, s := range list {
		d := whodunit.Diff(serial[i], parallel[i])
		if !d.Empty() {
			var buf bytes.Buffer
			d.Text(&buf)
			t.Errorf("%s: serial vs parallel RunAll runs differ:\n%s", s.Name, buf.String())
			continue
		}
		var js1, js2 bytes.Buffer
		if err := serial[i].JSON(&js1); err != nil {
			t.Fatal(err)
		}
		if err := parallel[i].JSON(&js2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js1.Bytes(), js2.Bytes()) {
			t.Errorf("%s: serial and parallel runs diff-empty but not bit-identical (%d vs %d bytes)",
				s.Name, js1.Len(), js2.Len())
		}
	}
}
