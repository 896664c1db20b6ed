package whodunit_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"testing"

	"whodunit"
	"whodunit/internal/cct"
	"whodunit/internal/vm"
)

// validReportJSON renders one real retired-window report — the
// well-formed corpus seed the fuzzers mutate from.
func validReportJSON(f *testing.F) []byte {
	f.Helper()
	srv := whodunit.NewServer(serveApp(7), whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 2,
	})
	srv.Run()
	kv, ok := srv.Ring().Get(0)
	if !ok {
		f.Fatal("no window retired")
	}
	var buf bytes.Buffer
	if err := kv.V.Report.JSON(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadReport asserts ReadReport agrees with the oracle
// RefReadReport (both fail, or both decode reports that encode to the
// same bytes) and either errors or returns a report every renderer and
// accessor can process — malformed, truncated or hostile input must
// never panic — and whose JSON decodes back to the same JSON. A decoded
// report diffs empty against itself, and its folded self-diff equals
// the oracle RefFoldedDiff's.
func FuzzReadReport(f *testing.F) {
	valid := validReportJSON(f)
	f.Add(valid)
	for _, cut := range []int{1, len(valid) / 3, len(valid) / 2, len(valid) - 2} {
		f.Add(valid[:cut])
	}
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"stages": [{"stage": "", "trees": null}]}`))
	f.Add([]byte(`{"stages": [{"dumps": [{"entries": [{"chain": [0], "tree": {}}]}]}]}`))
	f.Add([]byte(`{"window": {"seq": -9223372036854775808}}`))
	// The serve window above has no flow log; the same report with one.
	withFlows, err := whodunit.ReadReport(bytes.NewReader(valid))
	if err != nil {
		f.Fatal(err)
	}
	withFlows.Flows = []whodunit.FlowEvent{
		{Producer: 0, Consumer: 1, Token: 1, Lock: 1, Loc: vm.MemLoc(4)},
		{Producer: -1, Consumer: 2, Token: 1<<32 - 1, Lock: 2, Loc: vm.RegLoc(2, 3)},
		{Producer: math.MaxInt32, Consumer: math.MinInt32, Token: 3, Lock: math.MinInt32, Loc: vm.RegLoc(math.MaxInt32, 4)},
	}
	var buf bytes.Buffer
	if err := withFlows.JSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// An id one past int32, which encoding/json refuses.
	f.Add(bytes.Replace(buf.Bytes(), []byte(`"Producer": 2147483647`), []byte(`"Producer": 2147483648`), 1))
	// The same flow log in layouts ReadReport hands to encoding/json.
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.Bytes())
	f.Add(bytes.ReplaceAll(buf.Bytes(), []byte(`"Consumer"`), []byte(`"consumer"`)))
	// Records out of Flatten's order, a path twice and the root: only a
	// decoded report holds such lists.
	unsorted, err := whodunit.ReadReport(bytes.NewReader(valid))
	if err != nil {
		f.Fatal(err)
	}
	for _, sr := range unsorted.Stages {
		for i := range sr.Dump.Trees {
			if recs := sr.Dump.Trees[i].Records; len(recs) > 0 {
				callee := cct.FlatRecord{Path: append(slices.Clip(recs[0].Path), "callee"), Self: 2}
				root := cct.FlatRecord{Path: []string{}, Self: 1}
				sr.Dump.Trees[i].Records = append([]cct.FlatRecord{callee, recs[0], root}, recs...)
			}
		}
	}
	buf.Reset()
	if err := unsorted.JSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := whodunit.ReadReport(bytes.NewReader(data))
		ref, refErr := whodunit.RefReadReport(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadReport error %v, oracle %v", err, refErr)
		}
		if err != nil {
			return
		}
		var got, want bytes.Buffer
		if err := rep.JSON(&got); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if err := ref.JSON(&want); err != nil {
			t.Fatalf("oracle re-encode: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("re-encodes to\n%s\nthe oracle's report to\n%s", got.Bytes(), want.Bytes())
		}
		// A successfully decoded report must survive every presentation
		// path: renderers, totals, and a self-diff.
		rep.Text(io.Discard)
		rep.Folded(io.Discard)
		// Whatever decodes re-encodes, and the re-encoding is a fixed
		// point: JSON(ReadReport(JSON(r))) == JSON(r).
		var once, twice bytes.Buffer
		if err := rep.JSON(&once); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := whodunit.ReadReport(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		if err := back.JSON(&twice); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\nthen\n%s", once.Bytes(), twice.Bytes())
		}
		_ = rep.TotalSamples()
		d := whodunit.Diff(rep, rep)
		if !d.Empty() {
			t.Fatalf("self-diff not empty (max delta %d)", d.MaxDelta())
		}
		d.Text(io.Discard)
		if err := d.JSON(io.Discard); err != nil {
			t.Fatalf("self-diff encode: %v", err)
		}
		// The diff merges each context's records in path order, sorting
		// a decoded list that is not: the folded self-diff must equal
		// the one read from trees rebuilt from the records.
		var folded, oracle bytes.Buffer
		whodunit.FoldedDiff(rep, rep, &folded)
		whodunit.RefFoldedDiff(rep, rep, &oracle)
		if !bytes.Equal(folded.Bytes(), oracle.Bytes()) {
			t.Fatalf("folded self-diff\n%s\nthe oracle's\n%s", folded.Bytes(), oracle.Bytes())
		}
	})
}

// FuzzReadDiff is the same contract for ReadDiff: error or a diff whose
// renderers and predicates all run — never a panic.
func FuzzReadDiff(f *testing.F) {
	srv := whodunit.NewServer(serveApp(7), whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 2,
	})
	srv.Run()
	a, oka := srv.Ring().Get(0)
	b, okb := srv.Ring().Get(1)
	if !oka || !okb {
		f.Fatal("windows not retained")
	}
	var buf bytes.Buffer
	if err := whodunit.Diff(a.V.Report, b.V.Report).JSON(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{1, len(valid) / 3, len(valid) - 2} {
		f.Add(valid[:cut])
	}
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"stages": [{"stage": "s", "contexts": null}]}`))
	f.Add([]byte(`{"window_a": {"seq": 1}, "window_b": null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := whodunit.ReadDiff(bytes.NewReader(data))
		if err != nil {
			return
		}
		d.Text(io.Discard)
		if err := d.JSON(io.Discard); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		_ = d.Empty()
		_ = d.MaxDelta()
		_ = d.Exceeds(0)
		m := d.Mirrored()
		m.Text(io.Discard)
	})
}
