package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: every flag the tool cannot act on exits 2 with a
// message naming it, before any experiment runs.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		errHas string
	}{
		{"positional argument", []string{"-quick", "table3"}, "unexpected arguments"},
		{"unknown experiment", []string{"-only", "fig99"}, "-only"},
		{"mode on a mode-free experiment", []string{"-quick", "-only", "table3", "-mode", "csprof"}, "-mode"},
		{"bad mode", []string{"-mode", "bogus"}, "-mode"},
		{"unknown flag", []string{"-bogus"}, "-bogus"},
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

// TestQuickTable3 runs the smallest experiment end to end, with a heap
// profile of the run written beside it.
func TestQuickTable3(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "mem.prof")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-quick", "-only", "table3", "-memprofile", prof}, &stdout, &stderr); got != 0 {
		t.Fatalf("status %d\nstderr: %s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 3") {
		t.Fatalf("table3 printed %q", stdout.String())
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile: %v", err)
	}
}

// errWriter fails every write, as stdout does when redirected to a full
// device.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestWriteErrorsExit1: output that cannot be written and a profile
// file that cannot be created each exit 1.
func TestWriteErrorsExit1(t *testing.T) {
	var stderr bytes.Buffer
	if got := run([]string{"-quick", "-only", "table3"}, errWriter{}, &stderr); got != 1 {
		t.Fatalf("into a failing writer: status %d, want 1\nstderr: %s", got, stderr.String())
	}
	noDir := filepath.Join(t.TempDir(), "no-dir", "p.prof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-quick", "-only", "table3", flag, noDir}, &stdout, &stderr); got != 1 {
			t.Errorf("%s into a missing directory: status %d, want 1\nstderr: %s", flag, got, stderr.String())
		}
	}
}
