package main

import (
	"bytes"
	"net"
	"strings"
	"testing"
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
		{"watchdog unsupervised", []string{"-scenario", "serve-web", "-watchdog", "1s"}, "-watchdog"},
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

// TestHeadlessBoundedRun: a headless free-running serve retires the
// windows it was asked for, narrates each, and exits 0.
func TestHeadlessBoundedRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-scenario", "serve-web", "-addr", "", "-windows", "2", "-pace", "0"}, &stdout, &stderr); got != 0 {
		t.Fatalf("status %d\nstderr: %s", got, stderr.String())
	}
	out := stdout.String()
	if n := strings.Count(out, "\nwindow "); n != 2 {
		t.Errorf("%d window lines, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "run finished: 2 windows retired") {
		t.Errorf("no run-finished line:\n%s", out)
	}
	if strings.Contains(out, "serving") {
		t.Errorf("a headless run claims to serve:\n%s", out)
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
