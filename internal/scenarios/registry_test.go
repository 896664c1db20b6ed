package scenarios_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"whodunit"
	"whodunit/internal/scenarios"
)

// TestListCoversBothCorpora: List prints one line per scenario, the
// batch table in its stable order and then the serving table, each
// serving line with its window, its threshold and the tool that runs
// it. No name appears in both tables, so every tool's redirect to the
// other tool is unambiguous.
func TestListCoversBothCorpora(t *testing.T) {
	var buf bytes.Buffer
	scenarios.List(&buf)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var want []string
	for _, s := range scenarios.All() {
		want = append(want, fmt.Sprintf("%-24s %s", s.Name, s.About))
	}
	for _, s := range scenarios.ServeAll() {
		want = append(want, fmt.Sprintf("%-24s [whodunit-serve] window %s, threshold %d — %s",
			s.Name, time.Duration(s.Window), s.Threshold, s.About))
	}
	if len(lines) != len(want) {
		t.Fatalf("List printed %d lines, the tables hold %d scenarios:\n%s", len(lines), len(want), buf.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d: %q, want %q", i, lines[i], want[i])
		}
	}
	seen := map[string]bool{}
	for _, line := range lines {
		name := strings.Fields(line)[0]
		if seen[name] {
			t.Errorf("scenario name %q registered twice", name)
		}
		seen[name] = true
	}
}

// TestLookupBothKinds: each table finds its own scenarios and only
// those.
func TestLookupBothKinds(t *testing.T) {
	if _, ok := scenarios.ByName("mesh-steady"); !ok {
		t.Error("ByName(mesh-steady) missed a batch scenario")
	}
	if _, ok := scenarios.ServeByName("serve-mesh"); !ok {
		t.Error("ServeByName(serve-mesh) missed a serving scenario")
	}
	if _, ok := scenarios.ByName("serve-mesh"); ok {
		t.Error("ByName found a serving scenario")
	}
	if _, ok := scenarios.ServeByName("mesh-steady"); ok {
		t.Error("ServeByName found a batch scenario")
	}
	if _, ok := scenarios.ByName("no-such-scenario"); ok {
		t.Error("ByName invented a scenario")
	}
}

// TestParseSpecRedirectsServingNames: naming a serving scenario in a
// batch run spec explains the right tool instead of "unknown", and the
// other way round.
func TestParseSpecRedirectsServingNames(t *testing.T) {
	_, err := scenarios.ParseSpec("serve-mesh")
	if err == nil {
		t.Fatal("ParseSpec accepted a serving scenario")
	}
	if !strings.Contains(err.Error(), "whodunit-serve") {
		t.Fatalf("error does not point at whodunit-serve: %v", err)
	}
	_, err = scenarios.ParseServeSpec("mesh-steady:seed=3")
	if err == nil {
		t.Fatal("ParseServeSpec accepted a batch scenario")
	}
	if !strings.Contains(err.Error(), "whodunit-run") {
		t.Fatalf("error does not point at whodunit-run: %v", err)
	}
}

// TestParseServeSpec: a serving spec takes seed and mode, and refuses
// the trace keys as the non-mesh batch scenarios do.
func TestParseServeSpec(t *testing.T) {
	s, err := scenarios.ParseServeSpec("serve-web:seed=0,mode=csprof")
	if err != nil {
		t.Fatal(err)
	}
	if want := (scenarios.Params{Seed: 0, Mode: whodunit.ModeSampling}); s.Defaults != want {
		t.Fatalf("serve-web:seed=0,mode=csprof parsed to %+v, want %+v", s.Defaults, want)
	}
	for _, tc := range []struct{ spec, errHas string }{
		{"serve-web:trace=t.jsonl", "trace= in"},
		{"serve-mesh:write-trace=t.jsonl", "write-trace= in"},
		{"serve-web:mode=bogus", "mode"},
		{"serve-web:cores=2", "unknown override key"},
		{"nope", "unknown scenario"},
	} {
		if _, err := scenarios.ParseServeSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("ParseServeSpec(%q) = %v, want an error mentioning %q", tc.spec, err, tc.errHas)
		}
	}
}
