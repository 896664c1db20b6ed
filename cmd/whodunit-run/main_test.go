package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"whodunit/internal/scenarios"
)

// runOK runs the tool and returns its stdout, failing on a non-zero
// status.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, stderr.String())
	}
	return stdout.Bytes()
}

// TestOutputMatchesCorpusGoldens: the runner prints exactly what the
// scenario corpus pins — the text and JSON goldens double as the tool's
// expected output.
func TestOutputMatchesCorpusGoldens(t *testing.T) {
	for _, name := range []string{"apache", "tpcw", "quickstart", "mesh-deep"} {
		for kind, args := range map[string][]string{"json": {"-json", name}, "text": {name}} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				t.Parallel()
				want, err := os.ReadFile(filepath.Join("..", "..", "internal", "scenarios", "testdata", name+"."+kind+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if got := runOK(t, args...); !bytes.Equal(got, want) {
					t.Fatalf("whodunit-run %v differs from the %s golden (%d bytes vs %d)", args, kind, len(got), len(want))
				}
			})
		}
	}
}

func TestGraphAndFoldedForms(t *testing.T) {
	for _, flag := range []string{"-dot", "-folded"} {
		a, b := runOK(t, flag, "quickstart"), runOK(t, flag, "quickstart")
		if len(a) == 0 {
			t.Errorf("%s quickstart printed nothing", flag)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s quickstart differs between two runs", flag)
		}
	}
}

func TestSpecOverridesReachTheScenario(t *testing.T) {
	if bytes.Equal(runOK(t, "apache"), runOK(t, "apache:seed=7")) {
		t.Fatal("apache:seed=7 printed the same report as apache")
	}
}

// TestUsageErrors pins exit status 2 and a one-line diagnosis for every
// way of asking for something the tool cannot run.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		errHas string
	}{
		{"no spec", nil, "usage:"},
		{"two specs", []string{"apache", "squid"}, "usage:"},
		{"two output flags", []string{"-json", "-dot", "quickstart"}, "at most one output form"},
		{"unknown name", []string{"nope"}, "unknown scenario"},
		{"bad override key", []string{"quickstart:cores=4"}, "unknown override key"},
		{"bad mode", []string{"apache:mode=bogus"}, `scenarios: unknown mode "bogus"`},
		{"serving name", []string{"serve-web"}, "whodunit-serve"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != 2 {
				t.Fatalf("run(%v) = %d, want 2\nstderr: %s", tc.args, got, stderr.String())
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.errHas) || strings.Count(msg, "\n") != 1 {
				t.Fatalf("stderr %q: want one line mentioning %q", msg, tc.errHas)
			}
			// The run spec's parser words its own errors: no inner
			// package's prefix is stacked inside its message.
			if strings.Contains(msg, "profiler:") {
				t.Fatalf("stderr %q names the profiler package", msg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout %q on a usage error", stdout.String())
			}
		})
	}
}

// TestListPrintsWholeRegistry: -list names every scenario of both
// tables.
func TestListPrintsWholeRegistry(t *testing.T) {
	out := string(runOK(t, "-list"))
	var names []string
	for _, s := range scenarios.All() {
		names = append(names, s.Name)
	}
	for _, s := range scenarios.ServeAll() {
		names = append(names, s.Name)
	}
	for _, name := range names {
		if !strings.Contains(out, name+" ") {
			t.Errorf("-list omits %s", name)
		}
	}
}

// errWriter fails every write, as stdout does when redirected to a full
// device.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestWriteErrorExits1: a report that cannot be written exits 1 in
// every output form.
func TestWriteErrorExits1(t *testing.T) {
	for _, args := range [][]string{{"-json", "fdqueue"}, {"-dot", "fdqueue"}, {"-folded", "fdqueue"}, {"fdqueue"}} {
		var stderr bytes.Buffer
		if got := run(args, errWriter{}, &stderr); got != 1 {
			t.Errorf("run(%v) into a failing writer = %d, want 1", args, got)
		}
	}
}

// golden reads one of the scenario corpus's pinned outputs.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "scenarios", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestMeshTraceRoundTrip: a mesh spec that records its generated trace
// and one that replays the recorded file print exactly the scenario's
// goldens, in JSON and text. A truncated file replays what it salvages
// and says what it lost; a file with nothing to replay and a trace key
// the spec cannot take are usage errors.
func TestMeshTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mesh.jsonl")
	wantJSON, wantText := golden(t, "mesh-deep.json.golden"), golden(t, "mesh-deep.text.golden")
	for _, args := range [][]string{
		{"-json", "mesh-deep:write-trace=" + path},
		{"-json", "mesh-deep:trace=" + path},
	} {
		if got := runOK(t, args...); !bytes.Equal(got, wantJSON) {
			t.Fatalf("whodunit-run %v differs from the JSON golden (%d bytes vs %d)", args, len(got), len(wantJSON))
		}
	}
	if got := runOK(t, "mesh-deep:trace="+path); !bytes.Equal(got, wantText) {
		t.Fatalf("the replayed text report differs from the text golden (%d bytes vs %d)", len(got), len(wantText))
	}

	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.jsonl")
	if err := os.WriteFile(truncated, whole[:len(whole)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"mesh-deep:trace=" + truncated}, &stdout, &stderr); got != 0 || stdout.Len() == 0 {
		t.Fatalf("truncated trace: status %d, %d bytes out\nstderr: %s", got, stdout.Len(), stderr.String())
	}
	if !regexp.MustCompile(`^whodunit-run: .*truncated\.jsonl: salvaged \d+ events \(\d+ lost\)\n$`).MatchString(stderr.String()) {
		t.Fatalf("truncated trace: stderr %q, want one salvage note", stderr.String())
	}

	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ spec, errHas string }{
		{"mesh-deep:trace=" + empty, "empty.jsonl"},
		{"mesh-deep:trace=" + filepath.Join(dir, "missing.jsonl"), "missing.jsonl"},
		{"mesh-deep:write-trace=" + filepath.Join(dir, "no-dir", "t.jsonl"), "no-dir"},
		{"apache:trace=" + path, "trace= in"},
		{"quickstart:write-trace=" + path, "write-trace= in"},
		{"mesh-deep:trace=" + path + ",write-trace=" + path, "conflict"},
		{"mesh-deep:trace=", "empty trace= path"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{tc.spec}, &stdout, &stderr); got != 2 {
			t.Errorf("%s: status %d, want 2\nstderr: %s", tc.spec, got, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.errHas) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s: stderr %q, want one line mentioning %q", tc.spec, msg, tc.errHas)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: stdout %q on an error", tc.spec, stdout.String())
		}
	}
}
