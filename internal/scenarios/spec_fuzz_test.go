package scenarios_test

import (
	"fmt"
	"strings"
	"testing"

	"whodunit/internal/scenarios"
)

// FuzzParseSpec: ParseSpec on any string returns a scenario or an error,
// never panics. A scenario it returns is the corpus entry the spec names,
// with exactly one of MakeApp and Make set, and the spec written back in
// canonical form parses to the same defaults. ParseSpec does no I/O, so
// the trace-file keys among the seeds create and read no file.
func FuzzParseSpec(f *testing.F) {
	for _, in := range scenarios.Index() {
		f.Add(in.Name)
		f.Add(in.Name + ":seed=9")
		f.Add(in.Name + ":mode=csprof")
		f.Add(in.Name + ":seed=3,mode=gprof")
	}
	for _, spec := range []string{
		"", ":", "tpcw:", "tpcw:seed", "tpcw:seed=", "tpcw:seed=-1", "tpcw:seed=18446744073709551616",
		"tpcw:mode=bogus", "tpcw:mode= WHODUNIT ", "tpcw:seed=1,,mode=off", "tpcw:color=red", "tpcw:seed=1:mode=off",
		"no-such-scenario:seed=1", "tpcw:seed=1,mode=off,seed=2", "\x00:\xff=\x80",
		"mesh-deep:trace=t.jsonl", "mesh-steady:seed=3,write-trace=out/t.jsonl", "mesh-hot-key:trace=a:b=c.jsonl,mode=off",
		"mesh-deep:trace=", "mesh-deep:trace=a,write-trace=b", "mesh-deep:trace=a,trace=b", "mesh-mega:trace=t.jsonl",
		"apache:trace=t.jsonl", "quickstart:write-trace=t.jsonl",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := scenarios.ParseSpec(spec)
		if err != nil {
			return
		}
		if name, _, _ := strings.Cut(spec, ":"); s.Name != name {
			t.Fatalf("ParseSpec(%q) returned scenario %q", spec, s.Name)
		}
		if (s.MakeApp == nil) == (s.Make == nil) {
			t.Fatalf("ParseSpec(%q): want exactly one of MakeApp and Make", spec)
		}
		canon := fmt.Sprintf("%s:seed=%d,mode=%s", s.Name, s.Defaults.Seed, s.Defaults.Mode)
		if p := s.Defaults.Trace; p != "" {
			canon += ",trace=" + p
		}
		if p := s.Defaults.WriteTrace; p != "" {
			canon += ",write-trace=" + p
		}
		back, err := scenarios.ParseSpec(canon)
		if err != nil || back.Defaults != s.Defaults {
			t.Fatalf("ParseSpec(%q) = %+v, but its canonical form %q parses to %+v, %v", spec, s.Defaults, canon, back.Defaults, err)
		}
	})
}
