package whodunit

// Property tests for the diff engine, quick-checked over randomized
// CCT reports: Diff(r, r) is empty; Diff(a, b) and Diff(b, a) are exact
// mirrors; a Diff survives a JSON round trip losslessly. The corpus
// variant of the reflexivity property (over every pinned scenario
// report) lives in internal/scenarios.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"whodunit/internal/cct"
	"whodunit/internal/ipc"
	"whodunit/internal/vm"
)

var diffFrames = []string{
	"accept", "parse_request", "serve", "sendfile", "sort_rows",
	"lookup", "write_reply", "read_body",
}

// randRecords builds a random flattened CCT: a handful of random call
// paths with random self samples and calls.
func randRecords(r *rand.Rand) ([]cct.FlatRecord, int64) {
	n := 1 + r.Intn(6)
	var recs []cct.FlatRecord
	var total int64
	for i := 0; i < n; i++ {
		depth := 1 + r.Intn(4)
		path := make([]string, depth)
		for d := range path {
			path[d] = diffFrames[r.Intn(len(diffFrames))]
		}
		self := int64(r.Intn(200))
		recs = append(recs, cct.FlatRecord{Path: path, Self: self, Calls: int64(r.Intn(5))})
		total += self
	}
	return recs, total
}

// randReport builds a random but internally consistent Report: stages
// with per-context tree dumps, sends that stitch into request/response
// edges, a crosstalk matrix and flow events. Stage and context names
// are drawn from small pools so two draws share most of their structure
// — the interesting regime for matching.
func randReport(r *rand.Rand) *Report {
	nstages := 1 + r.Intn(3)
	var dumps []StageDump
	for s := 0; s < nstages; s++ {
		d := StageDump{Stage: fmt.Sprintf("stage%d", s)}
		nt := 1 + r.Intn(3)
		for t := 0; t < nt; t++ {
			recs, total := randRecords(r)
			d.Trees = append(d.Trees, TreeDump{
				Key:     fmt.Sprintf("chain%d|ctx%d", t, t),
				Prefix:  fmt.Sprintf("chain%d", t),
				Label:   fmt.Sprintf("context-%d", t),
				Total:   total,
				Records: recs,
			})
		}
		// Sends from this stage's first context to a random chain; when
		// the chain names another stage's tree prefix, the stitcher
		// emits request/response edges.
		if r.Intn(2) == 0 {
			d.Sends = append(d.Sends, ipc.SendRecord{
				Chain:    fmt.Sprintf("chain%d", r.Intn(3)),
				FromKey:  d.Trees[0].Key,
				FromName: d.Trees[0].Label,
			})
		}
		dumps = append(dumps, d)
	}
	rep := ReportFromDumps("randapp", dumps...)
	rep.Elapsed = Duration(r.Intn(5)) * Millisecond
	for i := 0; i < r.Intn(3); i++ {
		rep.Crosstalk = append(rep.Crosstalk, CrosstalkPair{
			Waiter: fmt.Sprintf("txn%d", r.Intn(3)),
			Holder: fmt.Sprintf("txn%d", r.Intn(3)),
			Count:  int64(1 + r.Intn(5)),
			Total:  Duration(r.Intn(1000)) * Microsecond,
		})
	}
	for i := 0; i < r.Intn(4); i++ {
		rep.Flows = append(rep.Flows, FlowEvent{
			Producer: r.Int31n(3), Consumer: 3 + r.Int31n(3),
			Token: FlowToken(r.Intn(8)), Lock: 1 + r.Int31n(2),
			Loc: vm.Loc{Kind: vm.LocMem, Addr: uint32(r.Intn(64))},
		})
	}
	return rep
}

func TestDiffProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		a, b := randReport(r), randReport(r)

		// Reflexivity: a report diffed against itself is empty.
		if d := Diff(a, a); !d.Empty() {
			t.Fatalf("iter %d: Diff(a, a) not empty (max delta %d)", iter, d.MaxDelta())
		}
		// ... including against an independently decoded copy of itself.
		var js bytes.Buffer
		if err := a.JSON(&js); err != nil {
			t.Fatal(err)
		}
		a2, err := ReadReport(bytes.NewReader(js.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if d := Diff(a, a2); !d.Empty() {
			var buf bytes.Buffer
			d.Text(&buf)
			t.Fatalf("iter %d: Diff(a, decode(encode(a))) not empty:\n%s", iter, buf.String())
		}

		// Mirror: Diff(b, a) is Diff(a, b) with the sides swapped,
		// entry for entry and in the same order.
		ab, ba := Diff(a, b), Diff(b, a)
		if !reflect.DeepEqual(ba, ab.Mirrored()) {
			t.Fatalf("iter %d: Diff(b,a) != Diff(a,b).Mirrored()\nDiff(b,a)=%+v\nmirrored=%+v", iter, ba, ab.Mirrored())
		}

		// JSON round trip of a diff is lossless.
		var djs bytes.Buffer
		if err := ab.JSON(&djs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDiff(bytes.NewReader(djs.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ab, back) {
			t.Fatalf("iter %d: diff JSON round trip lossy\nbefore=%+v\nafter=%+v", iter, ab, back)
		}
	}
}

// TestDiffFindsKnownDeltas pins the diff engine's behavior on a
// hand-built pair: a changed node, a removed subtree, a context present
// on one side, a crosstalk change and a flow-count change.
func TestDiffFindsKnownDeltas(t *testing.T) {
	mk := func(serveSelf int64, withSort bool, extraCtx bool, flowCount int, waitCount int64) *Report {
		recs := []cct.FlatRecord{
			{Path: []string{"accept"}, Self: 10},
			{Path: []string{"accept", "serve"}, Self: serveSelf},
		}
		total := 10 + serveSelf
		if withSort {
			recs = append(recs, cct.FlatRecord{Path: []string{"accept", "serve", "sort_rows"}, Self: 7})
			recs = append(recs, cct.FlatRecord{Path: []string{"accept", "serve", "sort_rows", "cmp"}, Self: 2})
			total += 9
		}
		d := StageDump{Stage: "web", Trees: []TreeDump{
			{Key: "c|0", Prefix: "c", Label: "ctx", Total: total, Records: recs},
		}}
		if extraCtx {
			d.Trees = append(d.Trees, TreeDump{
				Key: "c|1", Prefix: "c2", Label: "ctx2", Total: 5,
				Records: []cct.FlatRecord{{Path: []string{"other"}, Self: 5}},
			})
		}
		rep := ReportFromDumps("app", d)
		for i := 0; i < flowCount; i++ {
			rep.Flows = append(rep.Flows, FlowEvent{Producer: 1, Consumer: 2, Lock: 1})
		}
		rep.Crosstalk = []CrosstalkPair{{Waiter: "w", Holder: "h", Count: waitCount, Total: Duration(waitCount) * Millisecond}}
		return rep
	}
	a := mk(20, true, false, 2, 3)
	b := mk(25, false, true, 5, 3)

	d := Diff(a, b)
	if d.Empty() {
		t.Fatal("expected non-empty diff")
	}
	if len(d.Stages) != 1 || d.Stages[0].Stage != "web" {
		t.Fatalf("stages = %+v", d.Stages)
	}
	var changed, subtree, onlyB bool
	for _, td := range d.Stages[0].Trees {
		if td.OnlyIn == SideB && td.Key == "c|1" {
			onlyB = true
		}
		for _, nd := range td.Nodes {
			if len(nd.Path) == 2 && nd.Path[1] == "serve" && nd.SelfA == 20 && nd.SelfB == 25 {
				changed = true
			}
			// The removed sort_rows subtree collapses to one row with
			// inclusive samples (7 + 2) and no descendant rows.
			if nd.Subtree && nd.OnlyIn == SideA && nd.Path[len(nd.Path)-1] == "sort_rows" && nd.SelfA == 9 && nd.SelfB == 0 {
				subtree = true
			}
			if nd.Path[len(nd.Path)-1] == "cmp" {
				t.Errorf("descendant of a one-sided subtree enumerated: %+v", nd)
			}
		}
	}
	if !changed || !subtree || !onlyB {
		t.Fatalf("missing expected deltas (changed=%v subtree=%v onlyB=%v): %+v", changed, subtree, onlyB, d.Stages[0].Trees)
	}
	if len(d.Flows) != 1 || d.Flows[0].CountA != 2 || d.Flows[0].CountB != 5 {
		t.Fatalf("flow deltas = %+v", d.Flows)
	}
	// Equal crosstalk cells produce no delta.
	if len(d.Crosstalk) != 0 {
		t.Fatalf("crosstalk deltas = %+v", d.Crosstalk)
	}
	if d.MaxDelta() != 9 {
		t.Fatalf("MaxDelta = %d, want 9 (the removed subtree)", d.MaxDelta())
	}
	if !d.Exceeds(0) || d.Exceeds(9) {
		t.Fatalf("threshold gating wrong around MaxDelta=%d", d.MaxDelta())
	}
}

// serveWindowPair builds two adjacent windows in the shape the serve
// workload retires (a frontend before an rpc proxy, four kv shards and
// a db): seven stages, ten contexts in b and nine in a, one or two
// records each, and request/response edges that repeat a group once
// per send. Between the windows every stage's samples move, the sends
// and so the edge counts change, and one db context is new in b. Every
// record list is in Flatten's order, so the diff sorts none.
func serveWindowPair() (a, b *Report) {
	window := func(w int64) *Report {
		tree := func(prefix, label string, self ...int64) TreeDump {
			td := TreeDump{Key: prefix + "|0", Prefix: prefix, Label: label}
			for i, s := range self {
				td.Records = append(td.Records, cct.FlatRecord{Path: []string{"serve", "rpc", "reply"}[:i+1], Self: s, Calls: s / 2})
				td.Total += s
			}
			return td
		}
		sends := func(chain, from string, n int64) []ipc.SendRecord {
			var out []ipc.SendRecord
			for range n {
				out = append(out, ipc.SendRecord{Chain: chain, FromKey: from + "|0"})
			}
			return out
		}
		dumps := []StageDump{
			{Stage: "frontend", Trees: []TreeDump{tree("1", "frontend:rpc_get", 40+w), tree("3", "frontend:rpc_set", 12-w)},
				Sends: append(sends("p2", "1", 2+w), sends("p2", "3", 1)...)},
			{Stage: "rpc-proxy", Trees: []TreeDump{tree("p2", "[p2]", 9+w, 3)}, Sends: sends("p2#1", "p2", 1+w)},
		}
		for s := range int64(4) {
			dumps = append(dumps, StageDump{Stage: fmt.Sprintf("kv-%d", s),
				Trees: []TreeDump{tree("p2#1", "[p2#1]", 20+s*w, 5+w)}, Sends: sends("p2#1#1", "p2#1", 1+w*(s%2))})
		}
		db := StageDump{Stage: "db", Trees: []TreeDump{tree("p2#1#1", "[p2#1#1]", 30-w), tree("p4#2#2", "[p4#2#2]", 4)}}
		if w > 0 {
			db.Trees = append(db.Trees, tree("p4#2", "[p4#2]", 2))
		}
		dumps = append(dumps, db)
		r := ReportFromDumps("serve-mesh", dumps...)
		r.Window = &WindowMeta{Seq: w, Start: Duration(w) * 2 * Second, End: Duration(w+1) * 2 * Second}
		r.Elapsed = 2 * Second
		return r
	}
	return window(0), window(1)
}

// BenchmarkReportDiff pins the diff hot path's allocation behavior over
// a random report pair (mostly-matched trees with scattered deltas) and
// over serveWindowPair, the auto-diff a served window gets on retiring.
func BenchmarkReportDiff(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	random := [2]*Report{randReport(r), randReport(r)}
	var serve [2]*Report
	serve[0], serve[1] = serveWindowPair()
	for _, pair := range []struct {
		name string
		ab   [2]*Report
	}{{"random", random}, {"serve-window", serve}} {
		b.Run(pair.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if d := Diff(pair.ab[0], pair.ab[1]); d == nil {
					b.Fatal("nil diff")
				}
			}
		})
	}
}
