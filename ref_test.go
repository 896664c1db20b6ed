package whodunit

// The differential oracle for Report.JSON: refReportJSON is the encoder
// Report.JSON was before it streamed the flow log — one json.Encoder
// with SetIndent over the whole report — kept, test-only, as the
// executable old definition. TestQuickReportJSONMatchesRef demands the
// same bytes (or the same error, with nothing written) on generated
// reports that reach every optional field, nil and empty slices, the
// integer extremes of a flow, and strings encoding/json must escape.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"whodunit/internal/cct"
	"whodunit/internal/ipc"
	"whodunit/internal/vm"
)

func refReportJSON(r *Report, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("whodunit: encode report: %w", err)
	}
	return nil
}

// genReport builds a report whose every field is, by turns, absent, nil,
// empty or filled.
type genReport struct{ rng *rand.Rand }

// strs are the strings labels and names draw from: plain ones and ones
// encoding/json escapes (HTML characters, quotes, a control character,
// U+2028, invalid UTF-8) or passes through (non-ASCII).
var strs = []string{
	"", "web", "db", "ctx|local", "a<b>&c", `say "hi"\`, "line\nbreak\x01",
	"sep\u2028par\u2029", "héllo, 日本", "bad\xffutf8", "tab\there",
}

func (g genReport) str() string { return strs[g.rng.Intn(len(strs))] }

// int64 draws the extremes and zero as often as a random value.
func (g genReport) int64() int64 {
	switch g.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	case 3:
		return -g.rng.Int63n(1000)
	}
	return g.rng.Int63()
}

func (g genReport) uint64() uint64 {
	switch g.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	}
	return g.rng.Uint64()
}

// n is a length for a generated slice; -1 stands for nil.
func (g genReport) n() int { return g.rng.Intn(5) - 1 }

func (g genReport) strings() []string {
	n := g.n()
	if n < 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = g.str()
	}
	return out
}

func (g genReport) flow() FlowEvent {
	return FlowEvent{
		Producer: int(g.int64()),
		Consumer: int(g.int64()),
		Token:    FlowToken(g.uint64()),
		Lock:     int(g.int64()),
		Loc: vm.Loc{
			Kind:   vm.LocKind(g.uint64()),
			Addr:   uint32(g.uint64()),
			Thread: int(g.int64()),
		},
	}
}

func (g genReport) stage() StageReport {
	sr := StageReport{
		Stage:        g.str(),
		Mode:         Mode(g.rng.Intn(4)),
		Samples:      g.int64(),
		Calls:        g.int64(),
		CtxtSwitches: g.int64(),
		Overhead:     Duration(g.int64()),
		Dump:         StageDump{Stage: g.str(), Lost: int(g.int64())},
	}
	if n := g.n(); n >= 0 {
		sr.Shares = make([]ContextShare, n)
		for i := range sr.Shares {
			sr.Shares[i] = ContextShare{Label: g.str(), Samples: g.int64(), Share: g.rng.Float64()}
		}
	}
	if n := g.n(); n >= 0 {
		sr.Dump.Trees = make([]TreeDump, n)
		for i := range sr.Dump.Trees {
			td := TreeDump{Key: g.str(), Prefix: g.str(), Label: g.str(), Total: g.int64()}
			if m := g.n(); m >= 0 {
				td.Records = make([]cct.FlatRecord, m)
				for j := range td.Records {
					td.Records[j] = cct.FlatRecord{Path: g.strings(), Self: g.int64(), Calls: g.int64()}
				}
			}
			sr.Dump.Trees[i] = td
		}
	}
	if n := g.n(); n >= 0 {
		// Up to two sends, or enough for a field larger than a chunk.
		if n == 3 {
			n = jsonChunk / 50
		}
		sr.Dump.Sends = make([]ipc.SendRecord, n)
		for i := range sr.Dump.Sends {
			sr.Dump.Sends[i] = ipc.SendRecord{Chain: g.str(), FromKey: g.str(), FromName: g.str()}
		}
	}
	return sr
}

func (g genReport) report() *Report {
	r := &Report{App: g.str(), Elapsed: Duration(g.int64())}
	if g.rng.Intn(2) == 0 {
		r.Window = &WindowMeta{Seq: g.int64(), Start: Duration(g.int64()), End: Duration(g.int64())}
	}
	if n := g.n(); n >= 0 {
		r.Stages = make([]StageReport, n)
		for i := range r.Stages {
			r.Stages[i] = g.stage()
		}
	}
	if n := g.n(); n >= 0 {
		r.Crosstalk = make([]CrosstalkPair, n)
		for i := range r.Crosstalk {
			r.Crosstalk[i] = CrosstalkPair{Waiter: g.str(), Holder: g.str(), Count: g.int64(),
				Total: Duration(g.int64()), Mean: Duration(g.int64())}
		}
	}
	if n := g.rng.Intn(7) - 1; n >= 0 {
		// Up to five flows, or enough to span several chunks.
		if n == 5 {
			n = 3 * jsonChunk / 100
		}
		r.Flows = make([]FlowEvent, n)
		for i := range r.Flows {
			r.Flows[i] = g.flow()
		}
	}
	switch g.rng.Intn(3) {
	case 1:
		r.Faults = &FaultStats{}
	case 2:
		r.Faults = &FaultStats{Dropped: g.int64(), Duplicated: g.int64(), Delayed: g.int64(),
			Crashes: g.int64(), Restarts: g.int64(), Stalls: g.int64(), Failures: g.int64()}
	}
	r.Missing = g.strings()
	return r
}

// sameJSON fails the test unless Report.JSON and the oracle write the
// same bytes and agree on the error.
func sameJSON(t *testing.T, what string, r *Report) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr, wantErr := r.JSON(&got), refReportJSON(r, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s: %d bytes vs the oracle's %d, first difference at %d:\n got %q\nwant %q",
			what, len(g), len(w), i, g[max(0, i-40):min(len(g), i+40)], w[max(0, i-40):min(len(w), i+40)])
	}
}

func TestQuickReportJSONMatchesRef(t *testing.T) {
	sameJSON(t, "zero report", &Report{})
	sameJSON(t, "zero flow", &Report{Flows: []FlowEvent{{}}})
	// A value encoding/json rejects: the same error, and (as the oracle
	// writes nothing then) no byte before it, flow log or not.
	for _, flows := range [][]FlowEvent{nil, make([]FlowEvent, 3)} {
		sameJSON(t, fmt.Sprintf("NaN share, %d flows", len(flows)), &Report{App: "nan", Flows: flows,
			Stages: []StageReport{{Stage: "web", Shares: []ContextShare{{Label: "x", Share: math.NaN()}}}}})
	}
	for seed := int64(0); seed < 300; seed++ {
		r := genReport{rand.New(rand.NewSource(seed))}.report()
		sameJSON(t, fmt.Sprintf("seed %d", seed), r)
	}
}

// failAfter accepts n bytes, then fails one write. A write after that
// one gets a different error, which JSON must not have tried.
type failAfter struct {
	n      int
	failed bool
}

var errFull = errors.New("device full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		return 0, errors.New("write after a failed write")
	}
	if len(p) > f.n {
		f.failed = true
		return f.n, errFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestReportJSONWriteError: a write that fails anywhere in the document,
// the flow log included, is returned.
func TestReportJSONWriteError(t *testing.T) {
	r := &Report{App: "flows", Stages: []StageReport{{Stage: "web"}}, Flows: make([]FlowEvent, 3*jsonChunk/100)}
	var full bytes.Buffer
	if err := r.JSON(&full); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, 10, full.Len() / 2, full.Len() - 1} {
		if err := r.JSON(&failAfter{n: at}); !errors.Is(err, errFull) {
			t.Errorf("write failing after %d of %d bytes: JSON returned %v", at, full.Len(), err)
		}
	}
}

// TestFlowLayoutCoversEveryField guards appendFlow, which spells out
// FlowEvent's JSON layout by hand: a field added to FlowEvent or vm.Loc,
// renamed, or given a json tag fails here until the layout follows.
func TestFlowLayoutCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(FlowEvent{}), []string{"Producer", "Consumer", "Token", "Lock", "Loc"}},
		{reflect.TypeOf(vm.Loc{}), []string{"Kind", "Addr", "Thread"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			if f.Tag != "" {
				t.Errorf("%v.%s has tag %q, which appendFlow does not honour", c.typ, f.Name, f.Tag)
			}
			got = append(got, f.Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v has fields %v; appendFlow writes %v", c.typ, got, c.want)
		}
	}
}
