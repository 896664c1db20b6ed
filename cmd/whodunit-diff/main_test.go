package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whodunit"
	"whodunit/internal/scenarios"
)

// writeReportFile runs a corpus scenario and writes its JSON report to
// a temp file, returning the path.
func writeReportFile(t *testing.T, spec string) string {
	t.Helper()
	s, err := scenarios.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Report().JSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), strings.ReplaceAll(spec, ":", "_")+".json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the tool's status contract: 0 when the diff is
// within bounds (or ungated), 1 when -threshold is exceeded, 2 on
// usage and IO errors.
func TestExitCodes(t *testing.T) {
	a := writeReportFile(t, "quickstart")
	b := writeReportFile(t, "quickstart:seed=9")

	cases := []struct {
		name   string
		args   []string
		status int
		errHas string
	}{
		{"identical ungated", []string{a, a}, 0, ""},
		{"identical gated", []string{"-threshold", "0", a, a}, 0, ""},
		{"divergent ungated", []string{a, b}, 0, ""},
		{"divergent over threshold", []string{"-threshold", "0", a, b}, 1, "exceeds threshold"},
		{"divergent under huge threshold", []string{"-threshold", "99999999", a, b}, 0, ""},
		{"run specs over threshold", []string{"-threshold", "0", "-run", "quickstart", "-run", "quickstart:seed=9"}, 1, "exceeds threshold"},
		{"no arguments", []string{}, 2, "usage:"},
		{"one file", []string{a}, 2, "usage:"},
		{"mixed run and file", []string{"-run", "quickstart", a}, 2, "usage:"},
		{"missing file", []string{a, filepath.Join(t.TempDir(), "nope.json")}, 2, "no such file"},
		{"bad run spec", []string{"-run", "quickstart", "-run", "nope"}, 2, "unknown scenario"},
		{"bad flag", []string{"-bogus"}, 2, ""},
		{"list", []string{"-list"}, 0, ""},
		{"two output flags", []string{"-json", "-folded", a, b}, 2, "-json and -folded conflict"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.status {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.status, stderr.String())
			}
			if tc.errHas != "" && !strings.Contains(stderr.String(), tc.errHas) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.errHas)
			}
		})
	}
}

// TestDiffOutputFormats smoke-checks the three output forms through the
// run seam.
func TestDiffOutputFormats(t *testing.T) {
	a := writeReportFile(t, "quickstart")
	b := writeReportFile(t, "quickstart:seed=9")

	var stdout, stderr bytes.Buffer
	if got := run([]string{a, b}, &stdout, &stderr); got != 0 {
		t.Fatalf("text diff: status %d, stderr %s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "whodunit diff") && stdout.Len() == 0 {
		t.Fatalf("text diff produced nothing")
	}

	stdout.Reset()
	if got := run([]string{"-json", a, b}, &stdout, &stderr); got != 0 {
		t.Fatalf("json diff: status %d", got)
	}
	if _, err := whodunit.ReadDiff(&stdout); err != nil {
		t.Fatalf("json diff output does not decode: %v", err)
	}

	stdout.Reset()
	if got := run([]string{"-folded", a, b}, &stdout, &stderr); got != 0 {
		t.Fatalf("folded diff: status %d", got)
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if line == "" {
			continue
		}
		if len(strings.Fields(line)) < 3 {
			t.Fatalf("folded line %q lacks the two delta columns", line)
		}
	}
}

// errWriter fails every write, as stdout does when redirected to a full
// device.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestWriteErrorExits2: a diff that cannot be written is an IO error in
// every output form.
func TestWriteErrorExits2(t *testing.T) {
	a := writeReportFile(t, "quickstart")
	b := writeReportFile(t, "quickstart:seed=9")
	for _, form := range [][]string{{}, {"-folded"}, {"-json"}} {
		var stderr bytes.Buffer
		args := append(append([]string(nil), form...), a, b)
		if got := run(args, errWriter{}, &stderr); got != 2 {
			t.Errorf("run(%v) into a failing writer = %d, want 2", form, got)
		}
		if !strings.Contains(stderr.String(), "no space left") {
			t.Errorf("%v: stderr %q does not carry the write error", form, stderr.String())
		}
	}
}
