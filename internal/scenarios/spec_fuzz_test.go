package scenarios_test

import (
	"fmt"
	"strings"
	"testing"

	"whodunit/internal/scenarios"
)

// FuzzParseSpec: ParseSpec and ParseServeSpec on any string return a
// scenario or an error, never panic, and at most one of them accepts a
// spec. A scenario either returns is the entry the spec names, with
// exactly one builder set (MakeApp or Make for a batch scenario, App for
// a serving one), and the spec written back in canonical form parses to
// the same defaults. Neither parser does I/O, so the trace-file keys
// among the seeds create and read no file.
func FuzzParseSpec(f *testing.F) {
	var names []string
	for _, s := range scenarios.All() {
		names = append(names, s.Name)
	}
	for _, s := range scenarios.ServeAll() {
		names = append(names, s.Name)
	}
	for _, name := range names {
		f.Add(name)
		f.Add(name + ":seed=9")
		f.Add(name + ":mode=csprof")
		f.Add(name + ":seed=3,mode=gprof")
	}
	for _, spec := range []string{
		"", ":", "tpcw:", "tpcw:seed", "tpcw:seed=", "tpcw:seed=-1", "tpcw:seed=18446744073709551616",
		"tpcw:mode=bogus", "tpcw:mode= WHODUNIT ", "tpcw:seed=1,,mode=off", "tpcw:color=red", "tpcw:seed=1:mode=off",
		"no-such-scenario:seed=1", "tpcw:seed=1,mode=off,seed=2", "\x00:\xff=\x80",
		"mesh-deep:trace=t.jsonl", "mesh-steady:seed=3,write-trace=out/t.jsonl", "mesh-hot-key:trace=a:b=c.jsonl,mode=off",
		"mesh-deep:trace=", "mesh-deep:trace=a,write-trace=b", "mesh-deep:trace=a,trace=b", "mesh-mega:trace=t.jsonl",
		"apache:trace=t.jsonl", "quickstart:write-trace=t.jsonl",
		"serve-web:seed=0", "serve-crashy:seed=3,mode=off", "serve-mesh:trace=t.jsonl", "serve-shift:write-trace=t.jsonl",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		name, _, _ := strings.Cut(spec, ":")
		b, berr := scenarios.ParseSpec(spec)
		s, serr := scenarios.ParseServeSpec(spec)
		var p scenarios.Params
		var reparse func(string) (scenarios.Params, error)
		switch {
		case berr == nil && serr == nil:
			t.Fatalf("both ParseSpec and ParseServeSpec accept %q", spec)
		case berr == nil:
			if b.Name != name {
				t.Fatalf("ParseSpec(%q) returned scenario %q", spec, b.Name)
			}
			if (b.MakeApp == nil) == (b.Make == nil) {
				t.Fatalf("ParseSpec(%q): want exactly one of MakeApp and Make", spec)
			}
			p = b.Defaults
			reparse = func(spec string) (scenarios.Params, error) {
				b, err := scenarios.ParseSpec(spec)
				return b.Defaults, err
			}
		case serr == nil:
			if s.Name != name {
				t.Fatalf("ParseServeSpec(%q) returned scenario %q", spec, s.Name)
			}
			if s.App == nil {
				t.Fatalf("ParseServeSpec(%q): App not set", spec)
			}
			p = s.Defaults
			reparse = func(spec string) (scenarios.Params, error) {
				s, err := scenarios.ParseServeSpec(spec)
				return s.Defaults, err
			}
		default:
			return
		}
		canon := fmt.Sprintf("%s:seed=%d,mode=%s", name, p.Seed, p.Mode)
		if p.Trace != "" {
			canon += ",trace=" + p.Trace
		}
		if p.WriteTrace != "" {
			canon += ",write-trace=" + p.WriteTrace
		}
		if back, err := reparse(canon); err != nil || back != p {
			t.Fatalf("%q parses to %+v, but its canonical form %q parses to %+v, %v", spec, p, canon, back, err)
		}
	})
}
