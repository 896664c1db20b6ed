package cmdutil_test

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"testing"

	"whodunit"
	"whodunit/internal/cct"
	"whodunit/internal/cmdutil"
)

// The flag helpers register on the global CommandLine (that is their
// contract — every whodunit-* binary shares one flag set), so each is
// registered exactly once for the whole test binary.
var (
	modeFlag = cmdutil.ModeFlag()
	jsonFlag = cmdutil.JSONFlag()
)

func TestModeFlagDefault(t *testing.T) {
	if *modeFlag != whodunit.ModeWhodunit {
		t.Fatalf("default mode = %v, want whodunit", *modeFlag)
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
		if err := flag.CommandLine.Set("mode", name); err != nil {
			t.Fatalf("set mode=%s: %v", name, err)
		}
		if *modeFlag != m {
			t.Fatalf("mode %s parsed to %v, want %v", name, *modeFlag, m)
		}
	}
	if err := flag.CommandLine.Set("mode", "bogus"); err == nil {
		t.Fatal("mode=bogus accepted")
	}
	// Leave the shared flag at its documented default.
	if err := flag.CommandLine.Set("mode", "whodunit"); err != nil {
		t.Fatal(err)
	}
}

func TestJSONFlag(t *testing.T) {
	if *jsonFlag {
		t.Fatal("json flag defaults to true")
	}
	if err := flag.CommandLine.Set("json", "true"); err != nil {
		t.Fatal(err)
	}
	if !*jsonFlag {
		t.Fatal("json flag did not set")
	}
	if err := flag.CommandLine.Set("json", "false"); err != nil {
		t.Fatal(err)
	}
}

// errWriter fails every write, as stdout does when redirected to a full
// device.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestEmitReportFormats checks each selector against the Report method
// it stands for, that a failed write is returned in every form, and
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
		name              string
		json, dot, folded bool
		want              string
	}{
		{"text", false, false, false, direct(rep.Text)},
		{"dot", false, true, false, direct(rep.DOT)},
		{"folded", false, false, true, direct(rep.Folded)},
		{"json", true, false, false, direct(func(w io.Writer) { _ = rep.JSON(w) })},
	}
	for _, tc := range cases {
		var got bytes.Buffer
		if err := cmdutil.EmitReport(&got, rep, tc.json, tc.dot, tc.folded); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.String() != tc.want {
			t.Errorf("%s: EmitReport wrote\n%s\nwant\n%s", tc.name, got.String(), tc.want)
		}
		if err := cmdutil.EmitReport(errWriter{}, rep, tc.json, tc.dot, tc.folded); err == nil {
			t.Errorf("%s: EmitReport into a failing writer returned nil", tc.name)
		}
	}

	var raw bytes.Buffer
	if err := cmdutil.EmitReport(&raw, rep, true, false, false); err != nil {
		t.Fatal(err)
	}
	decoded, err := whodunit.ReadReport(&raw)
	if err != nil {
		t.Fatalf("EmitReport JSON does not decode: %v", err)
	}
	if decoded.App != "cmdutil-test" || decoded.Elapsed != rep.Elapsed {
		t.Fatalf("decoded = %+v", decoded)
	}
}
