package scenarios

import (
	"fmt"
	"io"
	"time"

	"whodunit"
)

// The unified registry: one lookup surface over both scenario corpora,
// so every tool lists and resolves scenarios from the same place. A
// scenario added to all or serveAll appears in every tool's -list
// (List) automatically, and each tool can explain a name that belongs
// to the other kind instead of claiming it is unknown.

// Kind says which corpus a scenario lives in.
type Kind string

const (
	// KindBatch scenarios terminate on their own and produce one Report
	// (cmd/whodunit-run, cmd/whodunit-diff -run).
	KindBatch Kind = "batch"
	// KindServing scenarios run open-loop under the continuous profiling
	// service (cmd/whodunit-serve).
	KindServing Kind = "serving"
)

// Info is the registry's uniform view of one scenario of either kind.
type Info struct {
	Kind     Kind
	Name     string
	About    string
	Defaults Params

	// Serving-only recommendations (zero for batch scenarios).
	Window     whodunit.Duration
	Threshold  int64
	Supervised bool
}

// Index returns every scenario — the batch corpus in its stable order,
// then the serving corpus in its stable order.
func Index() []Info {
	out := make([]Info, 0, len(all)+len(serveAll))
	for _, s := range all {
		out = append(out, Info{Kind: KindBatch, Name: s.Name, About: s.About, Defaults: s.Defaults})
	}
	for _, s := range serveAll {
		out = append(out, Info{
			Kind: KindServing, Name: s.Name, About: s.About, Defaults: s.Defaults,
			Window: s.Window, Threshold: s.Threshold, Supervised: s.MakeRun != nil,
		})
	}
	return out
}

// Lookup finds a scenario of either kind by name.
func Lookup(name string) (Info, bool) {
	for _, in := range Index() {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

// List prints the registry for a tool's -list: the scenarios of the
// kind the tool runs first (serving ones with their recommended window
// and threshold), then the other kind, each marked with the tool that
// runs it.
func List(w io.Writer, own Kind) {
	index := Index()
	line := func(in Info) {
		about := in.About
		switch {
		case in.Kind != own && in.Kind == KindServing:
			about = "[whodunit-serve] " + about
		case in.Kind != own:
			about = "[whodunit-run] " + about
		case in.Kind == KindServing:
			about = fmt.Sprintf("window %s, threshold %d — %s", time.Duration(in.Window), in.Threshold, about)
		}
		fmt.Fprintf(w, "%-24s %s\n", in.Name, about)
	}
	for _, in := range index {
		if in.Kind == own {
			line(in)
		}
	}
	for _, in := range index {
		if in.Kind != own {
			line(in)
		}
	}
}

// The two corpora share one namespace: a batch and a serving scenario
// with the same name would make Lookup ambiguous and the tools' "did
// you mean the other kind" redirects wrong.
func init() {
	seen := map[string]Kind{}
	for _, in := range Index() {
		if prev, dup := seen[in.Name]; dup {
			panic(fmt.Sprintf("scenarios: name %q registered as both %s and %s", in.Name, prev, in.Kind))
		}
		seen[in.Name] = in.Kind
	}
}
