package main

import (
	"bytes"
	"net"
	"strconv"
	"strings"
	"testing"

	"whodunit/internal/scenarios"
	"whodunit/internal/testhook"
)

// TestUsageErrors: every flag value the tool cannot serve exits 2 with
// a message naming the flag, before anything is printed or run.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		errHas string
	}{
		{"positional argument", []string{"serve-web"}, "unexpected arguments"},
		{"unknown scenario", []string{"-scenario", "nope"}, "-scenario"},
		{"batch scenario", []string{"-scenario", "apache"}, "-scenario"},
		{"retain", []string{"-retain", "0"}, "-retain"},
		{"windows", []string{"-windows", "-1"}, "-windows"},
		{"pace", []string{"-pace", "-1"}, "-pace"},
		{"window", []string{"-window", "-1s"}, "-window"},
		{"threshold", []string{"-threshold", "-3"}, "-threshold"},
		{"headless forever", []string{"-addr", ""}, "-windows"},
		{"max restarts", []string{"-max-restarts", "0"}, "-max-restarts"},
		{"watchdog", []string{"-watchdog", "-1s"}, "-watchdog"},
		{"bad mode", []string{"-scenario", "serve-web:mode=bogus"}, `scenarios: unknown mode "bogus"`},
		{"trace key", []string{"-scenario", "serve-web:trace=t.jsonl"}, "trace="},
		{"unknown flag", []string{"-bogus"}, "-bogus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != 2 {
				t.Fatalf("run(%v) = %d, want 2\nstderr: %s", tc.args, got, stderr.String())
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.errHas) {
				t.Fatalf("stderr %q does not mention %q", msg, tc.errHas)
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

// headless runs a free-running headless serve of spec for n windows
// and returns its stdout, failing on a non-zero status.
func headless(t *testing.T, spec string, n int) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-scenario", spec, "-addr", "", "-windows", strconv.Itoa(n), "-pace", "0"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, stderr.String())
	}
	return stdout.String()
}

// windowLines returns the narration's per-window lines.
func windowLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "window ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestHeadlessBoundedRun: a headless free-running serve retires the
// windows it was asked for, narrates each, and exits 0. The injected
// mix shift of serve-shift alerts between windows 2 and 3; serve-crashy
// dies in run 0, serves degraded and recovers, as README quotes, and
// the window after its crash partial names window 1 as its base; and a
// spec's seed reaches the served app. The narration reads each window's
// verdict and base only: no run builds an auto-diff.
func TestHeadlessBoundedRun(t *testing.T) {
	built := testhook.AutoDiffs.Load()
	defer func() {
		if n := testhook.AutoDiffs.Load() - built; n != 0 {
			t.Errorf("the narrated runs built %d auto-diffs, want none", n)
		}
	}()
	out := headless(t, "serve-web", 2)
	if n := len(windowLines(out)); n != 2 {
		t.Errorf("%d window lines, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "run finished: 2 windows retired") {
		t.Errorf("no run-finished line:\n%s", out)
	}
	if strings.Contains(out, "serving") {
		t.Errorf("a headless run claims to serve:\n%s", out)
	}

	t.Run("serve-shift", func(t *testing.T) {
		if out := headless(t, "serve-shift", 6); !strings.Contains(out, "\nALERT window 3:") {
			t.Errorf("the mix shift did not alert at window 3:\n%s", out)
		}
	})
	t.Run("serve-crashy", func(t *testing.T) {
		out := headless(t, "serve-crashy", 6)
		for _, want := range []string{"DEGRADED", "\nrecovered: window", "\nrun finished: 6 windows retired, 0 alerts, 1 restarts\n"} {
			if !strings.Contains(out, want) {
				t.Errorf("no %q in:\n%s", want, out)
			}
		}
		want := []string{
			"window 0 [0.000s, 2.000s): 914 samples",
			"window 1 [2.000s, 4.000s): 754 samples, max delta 146 vs window 0",
			"window 2 [4.000s, 5.000s): 305 samples",
			"window 3 [0.000s, 2.000s): 914 samples, max delta 146 vs window 1, DEGRADED (restart 1)",
			"window 4 [2.000s, 4.000s): 754 samples, max delta 146 vs window 3",
			"window 5 [4.000s, 6.000s): 793 samples, max delta 60 vs window 4",
		}
		if got := windowLines(out); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("window lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
	t.Run("seed", func(t *testing.T) {
		def, seeded := windowLines(out), windowLines(headless(t, "serve-web:seed=3", 2))
		if strings.Join(def, "\n") == strings.Join(seeded, "\n") {
			t.Errorf("serve-web:seed=3 retired the default seed's windows:\n%s", strings.Join(seeded, "\n"))
		}
	})
}

// TestListIsTheWholeCorpus: -list prints the listing every tool
// prints, batch and serving tables alike.
func TestListIsTheWholeCorpus(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("status %d\nstderr: %s", got, stderr.String())
	}
	var want bytes.Buffer
	scenarios.List(&want)
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("-list differs from scenarios.List:\n%s", stdout.String())
	}
}

// TestBusyAddrExits2: an address that cannot be bound is refused before
// the tool claims to serve on it or retires a window.
func TestBusyAddrExits2(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-addr", addr, "-windows", "1", "-pace", "0"}, &stdout, &stderr); got != 2 {
		t.Fatalf("status %d, want 2\nstderr: %s", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), addr) {
		t.Errorf("stderr %q does not name %s", stderr.String(), addr)
	}
	if out := stdout.String(); strings.Contains(out, "serving") || strings.Contains(out, "window ") {
		t.Errorf("stdout on a busy address:\n%s", out)
	}
}

// TestServesOnAFreePort: a bounded run on a port the kernel picks
// prints the address it bound, then drains and exits 0.
func TestServesOnAFreePort(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-addr", "127.0.0.1:0", "-windows", "1", "-pace", "0"}, &stdout, &stderr); got != 0 {
		t.Fatalf("status %d\nstderr: %s", got, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "serving serve-web on http://127.0.0.1:") || strings.Contains(out, "127.0.0.1:0 ") {
		t.Errorf("no serving line with the bound port:\n%s", out)
	}
	if !strings.Contains(out, "run finished: 1 windows retired") {
		t.Errorf("no run-finished line:\n%s", out)
	}
}
