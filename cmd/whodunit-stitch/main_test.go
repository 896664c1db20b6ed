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

// quickstartDumps runs the quickstart scenario and writes each stage's
// dump to its own file, returning the dumps and the paths.
func quickstartDumps(t *testing.T) ([]whodunit.StageDump, []string) {
	t.Helper()
	s, ok := scenarios.ByName("quickstart")
	if !ok {
		t.Fatal("no quickstart scenario")
	}
	app := s.MakeApp(s.Defaults)
	app.Run()
	var dumps []whodunit.StageDump
	var paths []string
	for _, st := range app.Stages() {
		d := st.Dump()
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), d.Stage+".json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, d)
		paths = append(paths, path)
	}
	if len(paths) < 2 {
		t.Fatalf("quickstart dumped %d stages", len(paths))
	}
	return dumps, paths
}

// TestStitchMatchesReportFromDumps: stitching the dump files prints the
// report that ReportFromDumps assembles from the dumps in memory.
func TestStitchMatchesReportFromDumps(t *testing.T) {
	dumps, paths := quickstartDumps(t)
	var want bytes.Buffer
	if err := whodunit.ReportFromDumps("quickstart", dumps...).JSON(&want); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := append([]string{"-json", "-name", "quickstart"}, paths...)
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("stitched JSON differs from ReportFromDumps (%d bytes vs %d)", stdout.Len(), want.Len())
	}
}

// TestUsageErrors: every way of asking for something the tool cannot do
// exits 2 with one line naming the flag or the usage, and prints
// nothing on stdout.
func TestUsageErrors(t *testing.T) {
	_, paths := quickstartDumps(t)
	cases := []struct {
		name   string
		args   []string
		errHas string
	}{
		{"no dumps", nil, "usage:"},
		{"no dumps with a form", []string{"-json"}, "usage:"},
		{"two output forms", append([]string{"-dot", "-json"}, paths...), "at most one output form"},
		{"three output forms", append([]string{"-folded", "-dot", "-json"}, paths...), "-json, -dot and -folded conflict"},
		{"unknown flag", []string{"-bogus", paths[0]}, "-bogus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != 2 {
				t.Fatalf("run(%v) = %d, want 2\nstderr: %s", tc.args, got, stderr.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, tc.errHas) {
				t.Fatalf("stderr %q does not mention %q", msg, tc.errHas)
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout %q on a usage error", stdout.String())
			}
		})
	}
}

// errWriter fails every write, as stdout does when redirected to a full
// device.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestInputAndWriteErrorsExit1: a dump that cannot be read, a file that
// is not a dump, and a report that cannot be written each exit 1 with a
// message naming the cause.
func TestInputAndWriteErrorsExit1(t *testing.T) {
	_, paths := quickstartDumps(t)
	report := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(report, []byte(`{"app": "quickstart", "stages": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		args   []string
		errHas string
	}{
		{[]string{paths[0], missing}, "missing.json"},
		{[]string{paths[0], report}, "not a stage dump"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != 1 {
			t.Errorf("run(%v) = %d, want 1\nstderr: %s", tc.args, got, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.errHas) || stdout.Len() != 0 {
			t.Errorf("run(%v): stderr %q (want %q), %d bytes on stdout", tc.args, stderr.String(), tc.errHas, stdout.Len())
		}
	}
	for _, form := range []string{"-json", "-dot", "-folded", "-name=x"} {
		var stderr bytes.Buffer
		if got := run(append([]string{form}, paths...), errWriter{}, &stderr); got != 1 {
			t.Errorf("%s into a failing writer = %d, want 1", form, got)
		}
	}
}
