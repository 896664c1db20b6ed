package cmdutil_test

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"whodunit"
	"whodunit/internal/cct"
	"whodunit/internal/cmdutil"
)

func TestModeFlagDefault(t *testing.T) {
	if m := cmdutil.ModeFlag(flag.NewFlagSet("t", flag.ContinueOnError)); *m != whodunit.ModeWhodunit {
		t.Fatalf("default mode = %v, want whodunit", *m)
	}
}

func TestModeFlagParsesEveryMode(t *testing.T) {
	want := map[string]whodunit.Mode{
		"off":      whodunit.ModeOff,
		"csprof":   whodunit.ModeSampling,
		"whodunit": whodunit.ModeWhodunit,
		"gprof":    whodunit.ModeInstrumented,
	}
	for name, m := range want {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		mode := cmdutil.ModeFlag(fs)
		if err := fs.Parse([]string{"-mode", name}); err != nil {
			t.Fatalf("-mode %s: %v", name, err)
		}
		if *mode != m {
			t.Fatalf("mode %s parsed to %v, want %v", name, *mode, m)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cmdutil.ModeFlag(fs)
	if err := fs.Parse([]string{"-mode", "bogus"}); err == nil {
		t.Fatal("-mode bogus accepted")
	}
}

// output parses args on a fresh flag set carrying only the output-form
// flags.
func output(t *testing.T, args ...string) *cmdutil.Output {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := cmdutil.OutputFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o
}

// TestOutputFlags: each form alone (or none) passes Check, and any two
// fail it with an error naming both flags. A form turned off
// explicitly is not a form.
func TestOutputFlags(t *testing.T) {
	for _, args := range [][]string{nil, {"-json"}, {"-dot"}, {"-folded"}, {"-json=false", "-dot"}} {
		if err := output(t, args...).Check(); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
	for _, args := range [][]string{{"-json", "-dot"}, {"-dot", "-folded"}, {"-folded", "-json"}, {"-json", "-dot", "-folded"}} {
		err := output(t, args...).Check()
		if err == nil {
			t.Errorf("%v: Check passed", args)
			continue
		}
		for _, f := range args {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%v: %q does not name %s", args, err, f)
			}
		}
	}
}

// errWriter fails every write, as stdout does when redirected to a full
// device.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestEmitReportFormats checks each output form against the Report
// method it stands for, that a failed write is returned in every form, and
// that the JSON form decodes back to the report.
func TestEmitReportFormats(t *testing.T) {
	rep := whodunit.ReportFromDumps("cmdutil-test", whodunit.StageDump{
		Stage: "web",
		Trees: []whodunit.TreeDump{{Label: "root", Total: 1,
			Records: []cct.FlatRecord{{Path: []string{"main"}, Self: 1}}}},
	})
	rep.Elapsed = 3 * whodunit.Millisecond

	direct := func(render func(io.Writer)) string {
		var buf bytes.Buffer
		render(&buf)
		return buf.String()
	}
	cases := []struct {
		flag string
		want string
	}{
		{"", direct(rep.Text)},
		{"-dot", direct(rep.DOT)},
		{"-folded", direct(rep.Folded)},
		{"-json", direct(func(w io.Writer) { _ = rep.JSON(w) })},
	}
	for _, tc := range cases {
		var args []string
		if tc.flag != "" {
			args = []string{tc.flag}
		}
		o := output(t, args...)
		var got bytes.Buffer
		if err := o.Emit(&got, rep); err != nil {
			t.Fatalf("%q: %v", tc.flag, err)
		}
		if got.String() != tc.want {
			t.Errorf("%q: Emit wrote\n%s\nwant\n%s", tc.flag, got.String(), tc.want)
		}
		if err := o.Emit(errWriter{}, rep); err == nil {
			t.Errorf("%q: Emit into a failing writer returned nil", tc.flag)
		}
	}

	var raw bytes.Buffer
	if err := output(t, "-json").Emit(&raw, rep); err != nil {
		t.Fatal(err)
	}
	decoded, err := whodunit.ReadReport(&raw)
	if err != nil {
		t.Fatalf("Emit's JSON does not decode: %v", err)
	}
	if decoded.App != "cmdutil-test" || decoded.Elapsed != rep.Elapsed {
		t.Fatalf("decoded = %+v", decoded)
	}
}
