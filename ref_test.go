package whodunit

// The differential oracles for the report's encoder, reader and flow
// diff, each the old definition kept, test-only, as executable:
//
//   - refReportJSON is the encoder Report.JSON was before it streamed the
//     flow log: one json.Encoder with SetIndent over the whole report.
//     TestQuickReportJSONMatchesRef demands the same bytes (or the same
//     error, with nothing written) on generated reports that reach every
//     optional field, nil and empty slices, the integer extremes of a
//     flow, and strings encoding/json must escape.
//   - refReadReport is ReadReport before it read the flow log with
//     readFlow: one json.Decoder over the whole input.
//     TestQuickReadReportMatchesRef demands the same error, or reports
//     that encode to the same bytes, on the same generated reports and on
//     rewrites of them in every layout Report.JSON does not write;
//     TestReadReportAcrossRefills on a flow log longer than the read
//     buffer, in pieces of every size, cut, and with an element rewritten.
//   - refDiffFlows is the flow diff before it sorted each side's keys: a
//     count map per side. diffFlows sorts by insertion, which is linear
//     on a log in the order a run records it, and hands a log that is
//     not over to slices.SortFunc once its moves pass a budget.
//     TestQuickDiffFlowsMatchesRef demands the same deltas on generated
//     logs: random ones, logs in record order with local inversions,
//     reversed ones and long runs of one key.
//   - refDiffStages, refDiffCrosstalk and refDiffEdges match as the diff
//     did before every section merge-walked its sides in key order: an
//     index map per side, keyed by name or by struct (a later entry
//     replaces an earlier one with its key; an edge group counts), and
//     the sorted union of the two maps' keys.
//     TestQuickDiffCrosstalkMatchesRef and TestQuickDiffEdgesMatchesRef
//     demand the same deltas on generated matrices and graphs whose
//     names may hold a NUL byte and whose keys may repeat; refDiff is
//     every oracle at once.
//   - refDiffTrees and refFoldedDiff are the tree diff and the two-column
//     folded diff before they merged the dumps' record lists: both sides'
//     records rebuilt into two trees of refNodes, then walked in
//     lockstep. TestQuickDiffTreesMatchesRef demands the same diff and
//     the same folded bytes on generated pairs, repeated stage names and
//     context keys among them, and TestDiffCorpusMatchesRef on the
//     scenario corpus.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
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

// int32 draws the ends of int32 and zero as often as a random value:
// FlowEvent's ids are int32.
func (g genReport) int32() int32 {
	switch g.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MaxInt32
	case 2:
		return math.MinInt32
	case 3:
		return -g.rng.Int31n(1000)
	}
	return g.rng.Int31()
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
		Producer: g.int32(),
		Consumer: g.int32(),
		Token:    FlowToken(g.uint64()),
		Lock:     g.int32(),
		Loc: vm.Loc{
			Kind:   vm.LocKind(g.uint64()),
			Addr:   uint32(g.uint64()),
			Thread: g.int32(),
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
	// appendFlow writes integers below a million itself: each number of
	// digits, on both sides of every power of ten.
	var digits []FlowEvent
	for p := int32(1); p <= 1e7; p *= 10 {
		for _, v := range []int32{p - 1, p, p + 1} {
			digits = append(digits, FlowEvent{Producer: v, Consumer: -v, Token: FlowToken(v), Lock: v,
				Loc: vm.Loc{Kind: vm.LocKind(v), Addr: uint32(v), Thread: v}})
		}
	}
	sameJSON(t, "digit counts", &Report{Flows: digits})
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

func refReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("whodunit: decode report: %w", err)
	}
	r.restitch()
	return &r, nil
}

func refDiffFlows(a, b []FlowEvent) []FlowDelta {
	type flowKey struct{ lock, prod, cons int }
	index := func(fs []FlowEvent) map[flowKey]int64 {
		m := make(map[flowKey]int64, len(fs))
		for _, f := range fs {
			m[flowKey{int(f.Lock), int(f.Producer), int(f.Consumer)}]++
		}
		return m
	}
	am, bm := index(a), index(b)
	keys := make([]flowKey, 0, len(am)+len(bm))
	for k := range am {
		keys = append(keys, k)
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].lock != keys[j].lock {
			return keys[i].lock < keys[j].lock
		}
		if keys[i].prod != keys[j].prod {
			return keys[i].prod < keys[j].prod
		}
		return keys[i].cons < keys[j].cons
	})
	var out []FlowDelta
	for _, k := range keys {
		if am[k] == bm[k] {
			continue
		}
		out = append(out, FlowDelta{
			Lock: k.lock, Producer: k.prod, Consumer: k.cons,
			CountA: am[k], CountB: bm[k],
		})
	}
	return out
}

// crosstalkKey and edgeKey key the oracles' maps by struct, so that
// names holding a NUL byte stay apart.
type crosstalkKey struct{ waiter, holder string }

type edgeKey struct{ fromStage, fromLabel, toStage, toLabel, kind string }

func refDiffCrosstalk(a, b []CrosstalkPair) []CrosstalkDelta {
	type cell struct {
		count int64
		total Duration
	}
	index := func(ps []CrosstalkPair) map[crosstalkKey]cell {
		m := make(map[crosstalkKey]cell, len(ps))
		for _, p := range ps {
			m[crosstalkKey{p.Waiter, p.Holder}] = cell{p.Count, p.Total}
		}
		return m
	}
	am, bm := index(a), index(b)
	var out []CrosstalkDelta
	for _, k := range keyUnion(am, bm, func(x, y crosstalkKey) bool {
		return x.waiter < y.waiter || x.waiter == y.waiter && x.holder < y.holder
	}) {
		ca, cb := am[k], bm[k]
		if ca == cb {
			continue
		}
		out = append(out, CrosstalkDelta{
			Waiter: k.waiter, Holder: k.holder,
			CountA: ca.count, CountB: cb.count,
			TotalA: ca.total, TotalB: cb.total,
		})
	}
	return out
}

func refDiffEdges(a, b *TransactionGraph) []EdgeDelta {
	index := func(g *TransactionGraph) map[edgeKey]int64 {
		m := make(map[edgeKey]int64)
		if g == nil {
			return m
		}
		for _, e := range g.Edges {
			from, to := g.Nodes[e.From], g.Nodes[e.To]
			m[edgeKey{from.Stage, from.Label, to.Stage, to.Label, e.Kind}]++
		}
		return m
	}
	am, bm := index(a), index(b)
	var out []EdgeDelta
	for _, k := range keyUnion(am, bm, func(x, y edgeKey) bool {
		return slices.Compare([]string{x.fromStage, x.fromLabel, x.toStage, x.toLabel, x.kind},
			[]string{y.fromStage, y.fromLabel, y.toStage, y.toLabel, y.kind}) < 0
	}) {
		if am[k] == bm[k] {
			continue
		}
		out = append(out, EdgeDelta{
			FromStage: k.fromStage, FromLabel: k.fromLabel,
			ToStage: k.toStage, ToLabel: k.toLabel, Kind: k.kind,
			CountA: am[k], CountB: bm[k],
		})
	}
	return out
}

// indexStages and indexTrees are the matching identity of the diff
// oracles: stages by name, trees by context key, a later entry in
// place of an earlier one with its key.
func indexStages(srs []StageReport) map[string]*StageReport {
	m := make(map[string]*StageReport, len(srs))
	for i := range srs {
		m[srs[i].Stage] = &srs[i]
	}
	return m
}

func indexTrees(tds []TreeDump) map[string]*TreeDump {
	m := make(map[string]*TreeDump, len(tds))
	for i := range tds {
		m[tds[i].Key] = &tds[i]
	}
	return m
}

// keyUnion returns the union of two maps' keys in the order less gives.
func keyUnion[K comparable, V any](a, b map[K]V, less func(x, y K) bool) []K {
	keys := make([]K, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}

// sortedKeyUnion returns the sorted union of two string-keyed maps' keys.
func sortedKeyUnion[V any](a, b map[string]V) []string {
	return keyUnion(a, b, func(x, y string) bool { return x < y })
}

// refDiff is Diff with every section compared by its oracle.
func refDiff(a, b *Report) *ReportDiff {
	return &ReportDiff{AppA: a.App, AppB: b.App, ElapsedA: a.Elapsed, ElapsedB: b.Elapsed,
		WindowA: a.Window, WindowB: b.Window,
		Stages:    refDiffStages(a.Stages, b.Stages),
		Crosstalk: refDiffCrosstalk(a.Crosstalk, b.Crosstalk),
		Flows:     refDiffFlows(a.Flows, b.Flows),
		Edges:     refDiffEdges(a.Graph, b.Graph),
	}
}

func refDiffStages(a, b []StageReport) []StageDiff {
	am, bm := indexStages(a), indexStages(b)
	var out []StageDiff
	for _, name := range sortedKeyUnion(am, bm) {
		sa, sb := am[name], bm[name]
		switch {
		case sb == nil:
			out = append(out, oneSidedStage(sa, SideA, &deltaSink{keep: true}))
		case sa == nil:
			out = append(out, oneSidedStage(sb, SideB, &deltaSink{keep: true}))
		default:
			sd := StageDiff{
				Stage:    name,
				SamplesA: sa.Samples, SamplesB: sb.Samples,
				CallsA: sa.Calls, CallsB: sb.Calls,
				SwitchesA: sa.CtxtSwitches, SwitchesB: sb.CtxtSwitches,
				Trees: refDiffTrees(sa.Dump.Trees, sb.Dump.Trees),
			}
			if len(sd.Trees) > 0 || sd.SamplesA != sd.SamplesB ||
				sd.CallsA != sd.CallsB || sd.SwitchesA != sd.SwitchesB {
				out = append(out, sd)
			}
		}
	}
	return out
}

// refNode is a node of the tree a dump's records describe, as the
// diff oracles rebuild it: its own counts and its children by frame
// name. It shares no code with cct.Tree.
type refNode struct {
	self, calls int64
	kids        map[string]*refNode
}

// refRebuild builds the tree a dump's records describe: every record's
// path is made, and its counts added in.
func refRebuild(recs []cct.FlatRecord) *refNode {
	root := &refNode{}
	for _, r := range recs {
		n := root
		for _, f := range r.Path {
			c := n.kids[f]
			if c == nil {
				if n.kids == nil {
					n.kids = map[string]*refNode{}
				}
				c = &refNode{}
				n.kids[f] = c
			}
			n = c
		}
		n.self += r.Self
		n.calls += r.Calls
	}
	return root
}

// inclusive sums the samples and the calls of n and all its
// descendants.
func (n *refNode) inclusive() (self, calls int64) {
	self, calls = n.self, n.calls
	for _, c := range n.kids {
		s, k := c.inclusive()
		self, calls = self+s, calls+k
	}
	return self, calls
}

// kid returns n's child for frame f, or an empty node.
func (n *refNode) kid(f string) *refNode {
	if c := n.kids[f]; c != nil {
		return c
	}
	return &refNode{}
}

func refDiffTrees(a, b []TreeDump) []TreeDiff {
	am, bm := indexTrees(a), indexTrees(b)
	var out []TreeDiff
	for _, key := range sortedKeyUnion(am, bm) {
		ta, tb := am[key], bm[key]
		switch {
		case tb == nil:
			out = append(out, TreeDiff{Key: key, Label: ta.Label, OnlyIn: SideA, TotalA: ta.Total})
		case ta == nil:
			out = append(out, TreeDiff{Key: key, Label: tb.Label, OnlyIn: SideB, TotalB: tb.Total})
		default:
			td := TreeDiff{Key: key, Label: min(ta.Label, tb.Label), TotalA: ta.Total, TotalB: tb.Total}
			td.Nodes = refDiffNodes(refRebuild(ta.Records), refRebuild(tb.Records), nil, td.Nodes)
			if len(td.Nodes) > 0 || td.TotalA != td.TotalB {
				out = append(out, td)
			}
		}
	}
	return out
}

func refDiffNodes(na, nb *refNode, path []string, out []NodeDelta) []NodeDelta {
	for _, f := range sortedKeyUnion(na.kids, nb.kids) {
		ca, cb := na.kids[f], nb.kids[f]
		path = append(path, f)
		switch {
		case cb == nil:
			self, calls := ca.inclusive()
			out = append(out, NodeDelta{Path: slices.Clone(path), SelfA: self, CallsA: calls, Subtree: true, OnlyIn: SideA})
		case ca == nil:
			self, calls := cb.inclusive()
			out = append(out, NodeDelta{Path: slices.Clone(path), SelfB: self, CallsB: calls, Subtree: true, OnlyIn: SideB})
		default:
			if ca.self != cb.self || ca.calls != cb.calls {
				out = append(out, NodeDelta{
					Path:  slices.Clone(path),
					SelfA: ca.self, SelfB: cb.self,
					CallsA: ca.calls, CallsB: cb.calls,
				})
			}
			out = refDiffNodes(ca, cb, path, out)
		}
		path = path[:len(path)-1]
	}
	return out
}

func refFoldedDiff(a, b *Report, w io.Writer) {
	am, bm := indexStages(a.Stages), indexStages(b.Stages)
	for _, stage := range sortedKeyUnion(am, bm) {
		var ta, tb map[string]*TreeDump
		if sr := am[stage]; sr != nil {
			ta = indexTrees(sr.Dump.Trees)
		}
		if sr := bm[stage]; sr != nil {
			tb = indexTrees(sr.Dump.Trees)
		}
		for _, key := range sortedKeyUnion(ta, tb) {
			var labels []string
			var ra, rb []cct.FlatRecord
			if da := ta[key]; da != nil {
				labels, ra = append(labels, da.Label), da.Records
			}
			if db := tb[key]; db != nil {
				labels, rb = append(labels, db.Label), db.Records
			}
			label := slices.Min(labels)
			refFoldNodes(refRebuild(ra), refRebuild(rb), stage+";"+label, w)
		}
	}
}

// refFoldNodes writes a line for every node under na or nb with
// samples on either side; a node missing on one side reads as empty.
func refFoldNodes(na, nb *refNode, prefix string, w io.Writer) {
	for _, f := range sortedKeyUnion(na.kids, nb.kids) {
		ca, cb := na.kid(f), nb.kid(f)
		line := prefix + ";" + f
		if ca.self != 0 || cb.self != 0 {
			fmt.Fprintf(w, "%s %d %d\n", line, ca.self, cb.self)
		}
		refFoldNodes(ca, cb, line, w)
	}
}

// chunks reads data in pieces of size bytes or, with size 0, of 1 to 64
// bytes drawn by rng, so that what a reader has buffered ends at every
// kind of place.
type chunks struct {
	data []byte
	rng  *rand.Rand
	size int
}

func (c *chunks) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	size := c.size
	if size == 0 {
		size = 1 + c.rng.Intn(64)
	}
	n := copy(p[:min(len(p), size)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// sameRead fails the test unless ReadReport, reading data in chunks,
// and the oracle agree on it: the same error, or equal reports, which
// encode to the same bytes.
func sameRead(t *testing.T, what string, data []byte, rng *rand.Rand) {
	t.Helper()
	sameReadFrom(t, what, data, &chunks{data: data, rng: rng})
}

// sameReadFrom is sameRead with ReadReport reading data from rd.
func sameReadFrom(t *testing.T, what string, data []byte, rd io.Reader) {
	t.Helper()
	got, gotErr := ReadReport(rd)
	want, wantErr := refReadReport(bytes.NewReader(data))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded report differs from the oracle's", what)
	}
	var g, w bytes.Buffer
	if err := got.JSON(&g); err != nil {
		t.Fatalf("%s: re-encode: %v", what, err)
	}
	if err := want.JSON(&w); err != nil {
		t.Fatalf("%s: oracle's re-encode: %v", what, err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: re-encodes to %d bytes, the oracle's report to %d", what, g.Len(), w.Len())
	}
}

// flowValue matches one integer of a flow-log element, by key.
func flowValue(key string) *regexp.Regexp {
	return regexp.MustCompile(`("` + key + `": )[^,\n]*`)
}

// rewrites returns js, a report r as Report.JSON writes it, in layouts
// JSON does not write, each named. Among them are js cut inside the
// flow log's first and last element: at every offset if allCuts, else
// at one drawn by rng.
func rewrites(r *Report, js []byte, allCuts bool, rng *rand.Rand) map[string][]byte {
	out := map[string][]byte{}
	var b bytes.Buffer
	if err := json.Compact(&b, js); err != nil {
		panic(err)
	}
	out["compact"] = b.Bytes()
	var tabs bytes.Buffer
	if err := json.Indent(&tabs, js, "", "\t"); err != nil {
		panic(err)
	}
	out["tabs"] = tabs.Bytes()
	end := bytes.LastIndex(js, []byte("\n}"))
	with := func(at int, s string) []byte {
		return append(append(append([]byte(nil), js[:at]...), s...), js[at:]...)
	}
	out["flows null first"] = with(2, `  "flows": null,`+"\n")
	out["flows last"] = with(end, ",\n  \"flows\": [\n"+string(appendFlow(nil, FlowEvent{Lock: 9}))+"\n  ]")
	out["no final newline"] = js[:len(js)-1]
	out["missing comma"] = bytes.Replace(js, []byte(",\n  \""), []byte("\n  \""), 1)
	out["trailing comma"] = with(end, ",")
	out["trailing bytes"] = append(append([]byte(nil), js...), "} garbage"...)
	if len(r.Flows) == 0 {
		return out
	}
	// The flow log's text, and its first and last elements'.
	log := bytes.Index(js, []byte(`"flows": [`)) + len(`"flows": [`) + 1
	logEnd := log + bytes.Index(js[log:], []byte("\n  ]"))
	first := appendFlow(nil, r.Flows[0])
	last := appendFlow(nil, r.Flows[len(r.Flows)-1])
	put := func(at, n int, s []byte) []byte {
		return append(append(append([]byte(nil), js[:at]...), s...), js[at+n:]...)
	}
	edit := func(f func([]byte) []byte) []byte {
		return put(log, len(first), f(append([]byte(nil), first...)))
	}
	out["flows null"] = put(log-2, logEnd+4-(log-2), []byte("null"))
	out["flows empty"] = put(log, logEnd-log, nil)
	if js[logEnd+4] == ',' {
		out["no comma after flows"] = put(logEnd+4, 1, nil)
	}
	out["case-folded key"] = edit(func(f []byte) []byte {
		return bytes.Replace(f, []byte(`"Producer"`), []byte(`"producer"`), 1)
	})
	out["reordered keys"] = edit(func(f []byte) []byte {
		lines := bytes.Split(f, []byte("\n"))
		lines[1], lines[2] = lines[2], lines[1]
		return bytes.Join(lines, []byte("\n"))
	})
	out["unknown key"] = edit(func(f []byte) []byte {
		return bytes.Replace(f, []byte("{\n"), []byte("{\n      \"Extra\": 1,\n"), 1)
	})
	for _, c := range []struct{ key, val string }{
		{"Producer", "01"}, {"Producer", "-0"}, {"Consumer", "1e3"}, {"Lock", "+1"},
		{"Token", "2147483648"}, {"Token", "4294967296"}, {"Kind", "256"},
		{"Thread", "-9223372036854775809"}, {"Addr", "null"}, {"Producer", `"1"`},
	} {
		out[c.key+" "+c.val] = edit(func(f []byte) []byte {
			return flowValue(c.key).ReplaceAll(f, []byte("${1}"+c.val))
		})
	}
	for _, el := range [][2]int{{log, len(first)}, {logEnd - len(last), len(last)}} {
		offsets := rng.Perm(el[1] + 1)
		if !allCuts {
			offsets = offsets[:1]
		}
		for _, i := range offsets {
			out[fmt.Sprintf("cut at %d", el[0]+i)] = js[:el[0]+i]
		}
	}
	return out
}

// TestQuickReadReportMatchesRef: ReadReport reads every report JSON
// writes without falling back to encoding/json, and agrees with the
// oracle on it and on every rewrite of it.
func TestQuickReadReportMatchesRef(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := genReport{rng}.report()
		var js bytes.Buffer
		if err := r.JSON(&js); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d := reportReader{br: bufio.NewReaderSize(&chunks{data: js.Bytes(), rng: rng}, jsonChunk)}
		if d.read() == nil {
			t.Fatalf("seed %d: the report JSON wrote was handed to encoding/json", seed)
		}
		sameRead(t, fmt.Sprintf("seed %d", seed), js.Bytes(), rng)
		// Each rewrite is decoded three times, so the reports over 16 KB
		// (a third of them, most of the bytes) are only cut, and only one
		// small report in ten is cut at every offset.
		small := js.Len() <= 16<<10
		allCuts := seed%10 == 0 && js.Len() <= 4<<10
		for name, data := range rewrites(r, js.Bytes(), allCuts, rng) {
			if small || strings.HasPrefix(name, "cut") {
				sameRead(t, fmt.Sprintf("seed %d, %s", seed, name), data, rng)
			}
		}
	}
}

// TestReadReportAcrossRefills: ReadReport parses each buffer's whole
// flow-log elements in one pass and reads the element the buffer's end
// cuts across a refill. A flow log over twice as long as its read buffer
// is read in pieces of every size from one byte to past the longest
// element, so the buffer ends at every offset of an element; then it is
// cut at every offset of an element past the first refill; then one
// element in the middle of the log is rewritten, which must hand the
// input to encoding/json and give the oracle's report or error.
func TestReadReportAcrossRefills(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := genReport{rng}
	r := &Report{App: "refills", Stages: []StageReport{{Stage: "web"}}}
	// Elements of many lengths: ids of one to four digits, and by turns
	// a flow of the generator's, integer extremes included.
	r.Flows = nearOrderedLog(rng, 5*jsonChunk/maxFlowText, 40, 20)
	for i := range r.Flows {
		r.Flows[i].Producer *= 1 + rng.Int31n(20)
		if rng.Intn(7) == 0 {
			r.Flows[i] = g.flow()
		}
	}
	var buf bytes.Buffer
	if err := r.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.Bytes()
	log := bytes.Index(js, []byte(`"flows": [`)) + len(`"flows": [`) + 1
	if logEnd := log + bytes.Index(js[log:], []byte("\n  ]")); logEnd-log < 2*jsonChunk {
		t.Fatalf("the flow log is %d bytes, not over twice the read buffer's %d", logEnd-log, jsonChunk)
	}
	for size := 1; size <= maxFlowText+len(",\n")+1; size++ {
		d := reportReader{br: bufio.NewReaderSize(&chunks{data: js, size: size}, jsonChunk)}
		if d.read() == nil {
			t.Fatalf("pieces of %d bytes: the report JSON wrote was handed to encoding/json", size)
		}
		sameReadFrom(t, fmt.Sprintf("pieces of %d bytes", size), js, &chunks{data: js, size: size})
	}
	// The first element that starts past the first refill.
	at, i := log, 0
	for ; at < jsonChunk+log; i++ {
		at += len(appendFlow(nil, r.Flows[i])) + len(",\n")
	}
	el := appendFlow(nil, r.Flows[i])
	for cut := at; cut <= at+len(el)+len(",\n"); cut++ {
		sameRead(t, fmt.Sprintf("cut at %d", cut), js[:cut], rng)
	}
	put := func(key, val string) []byte {
		return slices.Concat(js[:at], flowValue(key).ReplaceAll(el, []byte("${1}"+val)), js[at+len(el):])
	}
	for name, data := range map[string][]byte{
		"leading zero":  put("Producer", "01"),
		"fraction":      put("Consumer", "1.0"),
		"string":        put("Lock", `"1"`),
		"spaced number": put("Token", " 7"),
	} {
		for _, size := range []int{64, 1000, jsonChunk / 2, len(data)} {
			sameReadFrom(t, fmt.Sprintf("%s, pieces of %d bytes", name, size), data, &chunks{data: data, size: size})
		}
	}
}

// TestReadFlowInvertsAppendFlow: readFlow reads back what appendFlow
// wrote, integer extremes included; a cut element is reported as cut
// where it ends; and no other spelling of an integer is accepted.
func TestReadFlowInvertsAppendFlow(t *testing.T) {
	g := genReport{rand.New(rand.NewSource(1))}
	flows := []FlowEvent{{}, {
		Producer: math.MinInt32, Consumer: math.MaxInt32, Token: math.MaxUint32, Lock: math.MinInt32,
		Loc: vm.Loc{Kind: math.MaxUint8, Addr: math.MaxUint32, Thread: math.MaxInt32},
	}, {
		Producer: math.MaxInt32, Consumer: math.MinInt32, Token: math.MaxUint32, Lock: math.MaxInt32,
		Loc: vm.Loc{Kind: math.MaxUint8, Addr: math.MaxUint32, Thread: math.MinInt32},
	}}
	for range 1000 {
		flows = append(flows, g.flow())
	}
	longest := FlowEvent{
		Producer: math.MinInt32, Consumer: math.MinInt32, Token: math.MaxUint32, Lock: math.MinInt32,
		Loc: vm.Loc{Kind: math.MaxUint8, Addr: math.MaxUint32, Thread: math.MinInt32},
	}
	if n := len(appendFlow(nil, longest)); n != maxFlowText {
		t.Fatalf("the longest element is %d bytes; maxFlowText says %d", n, maxFlowText)
	}
	flows = append(flows, longest)
	for _, f := range flows {
		b := appendFlow(nil, f)
		got, n, ok := readFlow(append(b, ",\n"...))
		if !ok || n != len(b) || got != f {
			t.Fatalf("readFlow(appendFlow(%+v)) = %+v, %d, %v; want it back, %d, true", f, got, n, ok, len(b))
		}
		for cut := range len(b) {
			if _, n, ok := readFlow(b[:cut]); ok || n != cut {
				t.Fatalf("%q: readFlow = %d, %v; want %d, false", b[:cut], n, ok, cut)
			}
		}
	}
	b := appendFlow(nil, FlowEvent{Producer: 1, Consumer: 10, Token: 255, Lock: -1})
	for _, c := range []struct{ key, val string }{
		{"Producer", "01"}, {"Producer", "+1"}, {"Producer", "-0"}, {"Producer", "1.0"},
		{"Consumer", "1e1"}, {"Consumer", "010"}, {"Token", "4294967296"}, {"Token", "-1"},
		{"Lock", "-01"}, {"Lock", "- 1"}, {"Kind", "256"}, {"Addr", "99999999999999999999"},
		{"Thread", "9223372036854775808"}, {"Thread", "-9223372036854775809"},
		{"Producer", "2147483648"}, {"Consumer", "-2147483649"}, {"Lock", "2147483648"},
		{"Thread", "2147483648"}, {"Thread", "-2147483649"},
	} {
		bad := flowValue(c.key).ReplaceAll(b, []byte("${1}"+c.val))
		if _, n, ok := readFlow(append(bad, ",\n"...)); ok || n >= len(bad) {
			t.Errorf("readFlow accepted %s %s, or read it to its end (%d of %d bytes)", c.key, c.val, n, len(bad))
		}
	}
}

// TestReadReportInt32Boundary: a flow log whose ids sit at both ends of
// int32 is read back by readFlow, with nothing handed to encoding/json;
// one past either end, in any id field, fails ReadReport with
// encoding/json's error, the oracle's.
func TestReadReportInt32Boundary(t *testing.T) {
	r := &Report{App: "int32", Flows: []FlowEvent{{
		Producer: math.MaxInt32, Consumer: math.MinInt32, Token: math.MaxUint32, Lock: math.MaxInt32,
		Loc: vm.Loc{Kind: vm.LocReg, Addr: 15, Thread: math.MinInt32},
	}, {
		Producer: math.MinInt32, Consumer: math.MaxInt32, Token: 1, Lock: math.MinInt32,
		Loc: vm.Loc{Kind: vm.LocReg, Addr: 4, Thread: math.MaxInt32},
	}}}
	var buf bytes.Buffer
	if err := r.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.Bytes()
	d := reportReader{br: bufio.NewReader(bytes.NewReader(js))}
	if got := d.read(); got == nil || !slices.Equal(got.Flows, r.Flows) {
		t.Fatalf("the int32 extremes were not read back by readFlow: %+v", got)
	}
	sameRead(t, "int32 extremes", js, rand.New(rand.NewSource(1)))
	for _, key := range []string{"Producer", "Consumer", "Lock", "Thread"} {
		for _, val := range []string{"2147483648", "-2147483649"} {
			data := flowValue(key).ReplaceAll(js, []byte("${1}"+val))
			if _, err := ReadReport(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "int32") {
				t.Fatalf("%s %s: err = %v, want encoding/json's int32 range error", key, val, err)
			}
			sameReadFrom(t, key+" "+val, data, bytes.NewReader(data))
		}
	}
}

// TestQuickDiffFlowsMatchesRef: the sorted merge and the count maps give
// the same deltas on generated flow logs: either side empty, heavy
// duplicates, negative ids, keys on one side only; and on the three
// orders diffFlows' insertion sort meets: keys in log order with local
// inversions (the sort's fast path), fully reversed logs (past its
// move budget, so only the fallback sorts them) and long runs of one
// key.
func TestQuickDiffFlowsMatchesRef(t *testing.T) {
	same := func(what string, a, b []FlowEvent) {
		t.Helper()
		got, want := diffFlows(a, b, &deltaSink{keep: true}), refDiffFlows(a, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: diffFlows = %v\noracle %v", what, got, want)
		}
	}
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := func(ids, off int) []FlowEvent {
			fs := make([]FlowEvent, rng.Intn(4)*rng.Intn(40))
			for i := range fs {
				id := func() int32 { return int32(off + rng.Intn(2*ids+1) - ids) }
				fs[i] = FlowEvent{Lock: id(), Producer: id(), Consumer: id(), Token: FlowToken(rng.Intn(3))}
			}
			return fs
		}
		ids := 1 + rng.Intn(5)
		a, b := log(ids, 0), log(ids, rng.Intn(3)*ids)
		same(fmt.Sprintf("seed %d", seed), a, b)
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := nearOrderedLog(rng, 1+rng.Intn(3000), 40, 20), nearOrderedLog(rng, 1+rng.Intn(3000), 40, 20)
		same(fmt.Sprintf("seed %d, local inversions", seed), a, b)
		ra, rb := slices.Clone(a), slices.Clone(b)
		slices.Reverse(ra)
		slices.Reverse(rb)
		if seed < 10 {
			// The insertion sort moves a key once per inversion.
			if n := inversions(a); len(a) > 500 && n == 0 || n > flowSortMoves*len(a) {
				t.Fatalf("seed %d: %d flows in log order have %d inversions, not a few under the budget", seed, len(a), n)
			}
			if n := inversions(ra); len(ra) > 100 && n <= flowSortMoves*len(ra) {
				t.Fatalf("seed %d: %d reversed flows have %d inversions, within the budget", seed, len(ra), n)
			}
		}
		same(fmt.Sprintf("seed %d, reversed", seed), ra, rb)
		same(fmt.Sprintf("seed %d, reversed against ordered", seed), ra, b)
		// Runs of one key, up to a few hundred long, by turns ascending
		// and descending, some keys on both sides.
		runs := func() []FlowEvent {
			var fs []FlowEvent
			for k := range 1 + rng.Intn(20) {
				key := FlowEvent{Lock: 1, Producer: int32(k / 3), Consumer: rng.Int31n(3)}
				if k%2 == 1 {
					key.Producer = -key.Producer
				}
				for range 1 + rng.Intn(300) {
					fs = append(fs, key)
				}
			}
			return fs
		}
		same(fmt.Sprintf("seed %d, runs", seed), runs(), runs())
	}
}

// inversions counts the pairs of a flow log out of key order.
func inversions(fs []FlowEvent) int {
	key := func(f FlowEvent) []int32 { return []int32{f.Lock, f.Producer, f.Consumer} }
	n := 0
	for j := range fs {
		for i := range j {
			if slices.Compare(key(fs[j]), key(fs[i])) < 0 {
				n++
			}
		}
	}
	return n
}

// nearOrderedLog is a flow log in the order a run of apache records
// one: the two flows of each producer/consumer pair, pair after pair,
// then about one flow in every swapped with one up to maxDisp places on,
// most often a near one. Now and then a pair is left out or has a third
// flow, so two such logs differ.
func nearOrderedLog(rng *rand.Rand, n, maxDisp, every int) []FlowEvent {
	fs := make([]FlowEvent, 0, n)
	for k := int32(0); len(fs) < n; k++ {
		reps := 2
		switch rng.Intn(50) {
		case 0:
			reps = 0
		case 1:
			reps = 3
		}
		for r := range min(reps, n-len(fs)) {
			fs = append(fs, FlowEvent{Producer: 2 * k, Consumer: 2*k + 1, Token: 1, Lock: 1,
				Loc: vm.Loc{Kind: vm.LocReg, Addr: uint32(4 + r), Thread: 2*k + 1}})
		}
	}
	for i := range fs {
		if j := i + 1 + rng.Intn(1+rng.Intn(maxDisp)); rng.Intn(every) == 0 && j < len(fs) {
			fs[i], fs[j] = fs[j], fs[i]
		}
	}
	return fs
}

// graphReport stitches a report from stage dumps drawn from small name
// pools: several stages (a name may repeat), context keys that may
// repeat within a stage, prefixes shared within and across stages,
// sends that match no receiver and, by turns, stages declared missing.
// Labels repeat across contexts and stages, so several edges fall into
// one group. Now and then a name holds a NUL byte, which a key joined
// with NULs would confuse with another.
func graphReport(rng *rand.Rand) *Report {
	name := func(kind string, n int) string {
		if rng.Intn(10) == 0 {
			return fmt.Sprintf("%s\x00%d", kind[:1], rng.Intn(n))
		}
		return fmt.Sprintf("%s%d", kind, rng.Intn(n))
	}
	var dumps []StageDump
	for range 1 + rng.Intn(4) {
		d := StageDump{Stage: name("s", 4)}
		for range rng.Intn(5) {
			key := name("p", 4) + "|" + name("l", 3)
			d.Trees = append(d.Trees, TreeDump{Key: key, Prefix: name("p", 4), Label: name("ctx", 3), Total: rng.Int63n(9)})
		}
		for range rng.Intn(6) {
			d.Sends = append(d.Sends, ipc.SendRecord{Chain: name("p", 6), FromKey: name("p", 5) + "|" + name("l", 3)})
		}
		dumps = append(dumps, d)
	}
	r := ReportFromDumps("app", dumps...)
	for range rng.Intn(3) {
		r.Missing = append(r.Missing, name("s", 6))
	}
	r.restitch()
	return r
}

// repeats counts the stage names and tree keys that r repeats.
func repeats(r *Report) (stages, trees int) {
	seen := map[string]bool{}
	for _, sr := range r.Stages {
		if seen[sr.Stage] {
			stages++
		}
		seen[sr.Stage] = true
		keys := map[string]bool{}
		for _, td := range sr.Dump.Trees {
			if keys[td.Key] {
				trees++
			}
			keys[td.Key] = true
		}
	}
	return stages, trees
}

// TestQuickDiffEdgesMatchesRef: merge-walked edge groups and the count
// maps give the same deltas, in the same order, on generated graphs:
// request, response and severed edges, groups on one side only, a side
// with no graph, repeated stage names and context keys, and names that
// hold a NUL byte.
func TestQuickDiffEdgesMatchesRef(t *testing.T) {
	kinds := map[string]bool{}
	var repeated, nul int
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := graphReport(rng), graphReport(rng)
		got, want := Diff(a, b).Edges, refDiffEdges(a.Graph, b.Graph)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Diff edges = %v\noracle %v", seed, got, want)
		}
		for _, d := range got {
			kinds[d.Kind] = true
			if strings.Contains(d.FromStage+d.FromLabel+d.ToStage+d.ToLabel, "\x00") {
				nul++
			}
		}
		if s, k := repeats(a); s+k > 0 {
			repeated++
		}
		if got, want := diffEdges(nil, b.Graph, &deltaSink{keep: true}), refDiffEdges(nil, b.Graph); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: diffEdges(nil, b) = %v\noracle %v", seed, got, want)
		}
	}
	if len(kinds) != 3 || repeated == 0 || nul == 0 {
		t.Fatalf("deltas reached edge kinds %v, %d reports with repeats, %d deltas with a NUL; want request, response and severed, and both others above 0", kinds, repeated, nul)
	}
}

// TestQuickDiffCrosstalkMatchesRef: merge-walking (waiter, holder)
// pairs gives the struct-keyed oracle's deltas, in the same order, on
// generated matrices: names that hold a NUL byte, a cell repeated on
// one side (the later one is matched), cells on one side only, and an
// empty side. First the pair that a key joined with a NUL cannot tell
// apart: ("a\x00b", "c") and ("a", "b\x00c") are two cells.
func TestQuickDiffCrosstalkMatchesRef(t *testing.T) {
	joined := []CrosstalkPair{{Waiter: "a\x00b", Holder: "c", Count: 1}, {Waiter: "a", Holder: "b\x00c", Count: 2}}
	want := []CrosstalkDelta{{Waiter: "a", Holder: "b\x00c", CountA: 2}, {Waiter: "a\x00b", Holder: "c", CountA: 1}}
	if got := diffCrosstalk(joined, nil, &deltaSink{keep: true}); !reflect.DeepEqual(got, want) {
		t.Fatalf("diffCrosstalk(%#v, nil) = %#v; want %#v", joined, got, want)
	}
	names := []string{"", "a", "b", "ab", "a\x00", "a\x00b", "b\x00c", "\x00"}
	matrix := func(rng *rand.Rand) []CrosstalkPair {
		var ps []CrosstalkPair
		for range rng.Intn(8) {
			ps = append(ps, CrosstalkPair{
				Waiter: names[rng.Intn(len(names))], Holder: names[rng.Intn(len(names))],
				Count: rng.Int63n(3), Total: Duration(rng.Int63n(3)),
			})
		}
		return ps
	}
	var repeated int
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := matrix(rng), matrix(rng)
		if got, want := diffCrosstalk(a, b, &deltaSink{keep: true}), refDiffCrosstalk(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: diffCrosstalk(%#v, %#v) = %#v\noracle %#v", seed, a, b, got, want)
		}
		if got, want := diffCrosstalk(nil, b, &deltaSink{keep: true}), refDiffCrosstalk(nil, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: diffCrosstalk(nil, %#v) = %#v\noracle %#v", seed, b, got, want)
		}
		seen := map[crosstalkKey]bool{}
		for _, p := range a {
			if k := (crosstalkKey{p.Waiter, p.Holder}); seen[k] {
				repeated++
			} else {
				seen[k] = true
			}
		}
	}
	if repeated == 0 {
		t.Fatal("no generated matrix repeated a cell")
	}
}

// diffPair generates two reports whose context trees overlap: contexts
// from a small key pool (some on one side only), each side's records
// drawn from one small universe of call paths (names that share a
// prefix, now and then an empty frame name), so that one side's record
// often sits at the other's inner node and a one-sided subtree often
// tops at no record. A side's list is by turns a Flatten output, which
// diffPair counts, or raw: shuffled, with records split into duplicates,
// zero counts and empty (root) paths. Now and then a report repeats a
// stage name or a stage repeats a context key, with other contents, as
// a hand-written report may: a diff matches the later one.
func diffPair(rng *rand.Rand) (a, b *Report, flattened int) {
	path := func() []string {
		p := make([]string, 1+rng.Intn(3))
		for i := range p {
			p[i] = []string{"a", "ab", "b"}[rng.Intn(3)]
			if rng.Intn(40) == 0 {
				p[i] = ""
			}
		}
		return p
	}
	records := func() []cct.FlatRecord {
		n := rng.Intn(7)
		if rng.Intn(2) == 0 {
			t := cct.New("")
			for range n {
				p := path()
				ids := make([]cct.FrameID, len(p))
				for i, f := range p {
					ids[i] = t.Frames().ID(f)
				}
				if rng.Intn(3) == 0 {
					t.AddCallIDs(ids)
				} else {
					t.AddSamplesIDs(ids, 1+rng.Int63n(5))
				}
			}
			flattened++
			return t.Flatten()
		}
		var recs []cct.FlatRecord
		for range n {
			r := cct.FlatRecord{Path: path(), Self: rng.Int63n(4), Calls: rng.Int63n(3)}
			switch rng.Intn(10) {
			case 0:
				r.Path = nil
			case 1:
				r.Path = []string{}
			}
			recs = append(recs, r)
			if rng.Intn(4) == 0 {
				r.Self, r.Calls = rng.Int63n(3), rng.Int63n(2)
				recs = append(recs, r)
			}
		}
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		return recs
	}
	tree := func(k int) TreeDump {
		recs := records()
		var total int64
		for _, r := range recs {
			total += r.Self
		}
		return TreeDump{
			Key: fmt.Sprintf("p%d|c%d", k, k), Prefix: fmt.Sprintf("p%d", k),
			Label: fmt.Sprintf("ctx%d", k+rng.Intn(2)), Total: total, Records: recs,
		}
	}
	dump := func(s int) StageDump {
		d := StageDump{Stage: fmt.Sprintf("stage%d", s)}
		for k := range 3 {
			if rng.Intn(5) != 0 {
				d.Trees = append(d.Trees, tree(k))
			}
		}
		if rng.Intn(6) == 0 {
			d.Trees = append(d.Trees, tree(rng.Intn(3))) // a key again
		}
		return d
	}
	report := func() *Report {
		var dumps []StageDump
		for s := range 1 + rng.Intn(2) {
			dumps = append(dumps, dump(s))
		}
		if rng.Intn(6) == 0 {
			dumps = append(dumps, dump(rng.Intn(2))) // a stage name again
		}
		return ReportFromDumps("app", dumps...)
	}
	return report(), report(), flattened
}

// TestQuickDiffTreesMatchesRef: merging the record lists gives the diff
// and the folded diff that rebuilding and walking two trees gave, on
// randReport pairs (unsorted records, duplicates, zero counts) and on
// diffPair's, whose repeated stage names and context keys the oracle
// indexes by key: the later entry wins. Diff(b, a) is Diff(a, b)
// mirrored on each, labels included (diffPair labels a context apart on
// the two sides), and FoldedDiff(b, a) is FoldedDiff(a, b) with its
// columns swapped. Counters show the generators reached every case the
// merge tells apart.
func TestQuickDiffTreesMatchesRef(t *testing.T) {
	var reached struct {
		flattened, unsorted, duplicate, zero, root, inner, topNotRecord int
		repeatedStage, repeatedTree, relabeled                          int
	}
	hasPath := func(recs []cct.FlatRecord, path []string) bool {
		return slices.ContainsFunc(recs, func(r cct.FlatRecord) bool { return slices.Equal(r.Path, path) })
	}
	records := func(r *Report, stage, key string) []cct.FlatRecord {
		if sr := indexStages(r.Stages)[stage]; sr != nil {
			if td := indexTrees(sr.Dump.Trees)[key]; td != nil {
				return td.Records
			}
		}
		return nil
	}
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a, b *Report
		if seed%4 == 0 {
			a, b = randReport(rng), randReport(rng)
		} else {
			var n int
			a, b, n = diffPair(rng)
			reached.flattened += n
		}
		got, want := Diff(a, b), refDiff(a, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Diff stages = %+v\noracle %+v", seed, got.Stages, want.Stages)
		}
		if ba, m := Diff(b, a), got.Mirrored(); !reflect.DeepEqual(ba, m) {
			t.Fatalf("seed %d: Diff(b, a) = %+v\nDiff(a, b) mirrored %+v", seed, ba.Stages, m.Stages)
		}
		var fgot, fwant, fba bytes.Buffer
		FoldedDiff(a, b, &fgot)
		refFoldedDiff(a, b, &fwant)
		if !bytes.Equal(fgot.Bytes(), fwant.Bytes()) {
			t.Fatalf("seed %d: FoldedDiff wrote\n%s\noracle\n%s", seed, fgot.Bytes(), fwant.Bytes())
		}
		FoldedDiff(b, a, &fba)
		if swapped := swapFoldedColumns(fgot.String()); fba.String() != swapped {
			t.Fatalf("seed %d: FoldedDiff(b, a) wrote\n%s\nFoldedDiff(a, b) swapped\n%s", seed, fba.String(), swapped)
		}
		reached.relabeled += relabeled(a, b)

		for _, r := range []*Report{a, b} {
			s, k := repeats(r)
			reached.repeatedStage += s
			reached.repeatedTree += k
			for _, sr := range r.Stages {
				for _, td := range sr.Dump.Trees {
					paths := map[string]bool{}
					for _, rec := range td.Records {
						k := strings.Join(rec.Path, "\x00")
						switch {
						case len(rec.Path) == 0:
							reached.root++
						case paths[k]:
							reached.duplicate++
						}
						paths[k] = true
						if rec.Self == 0 && rec.Calls == 0 {
							reached.zero++
						}
					}
					if s := cct.SortedRecords(td.Records); len(s) != len(td.Records) || len(s) > 0 && &s[0] != &td.Records[0] {
						reached.unsorted++
					}
				}
			}
		}
		for _, sd := range want.Stages {
			for _, td := range sd.Trees {
				ra, rb := records(a, sd.Stage, td.Key), records(b, sd.Stage, td.Key)
				for _, nd := range td.Nodes {
					switch {
					case !nd.Subtree && (!hasPath(ra, nd.Path) || !hasPath(rb, nd.Path)):
						reached.inner++
					case nd.OnlyIn == SideA && !hasPath(ra, nd.Path), nd.OnlyIn == SideB && !hasPath(rb, nd.Path):
						reached.topNotRecord++
					}
				}
			}
		}
	}
	t.Logf("cases reached: %+v", reached)
	if reached.flattened == 0 || reached.unsorted == 0 || reached.duplicate == 0 || reached.zero == 0 ||
		reached.root == 0 || reached.inner == 0 || reached.topNotRecord == 0 ||
		reached.repeatedStage == 0 || reached.repeatedTree == 0 || reached.relabeled == 0 {
		t.Fatalf("a case was never reached: %+v", reached)
	}
}

// swapFoldedColumns swaps the two count columns of every difffolded
// line.
func swapFoldedColumns(folded string) string {
	var out strings.Builder
	for _, line := range strings.SplitAfter(folded, "\n") {
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		n := len(f)
		f[n-2], f[n-1] = f[n-1], f[n-2]
		out.WriteString(strings.Join(f, " ") + "\n")
	}
	return out.String()
}

// relabeled counts the contexts a and b both hold, by stage and key, but
// label differently.
func relabeled(a, b *Report) int {
	n := 0
	for stage, sa := range indexStages(a.Stages) {
		sb := indexStages(b.Stages)[stage]
		if sb == nil {
			continue
		}
		tb := indexTrees(sb.Dump.Trees)
		for key, ta := range indexTrees(sa.Dump.Trees) {
			if t := tb[key]; t != nil && t.Label != ta.Label {
				n++
			}
		}
	}
	return n
}

// BenchmarkReadReport decodes, with ReadReport and with the oracle, a
// report of tpcw's size (23 KB, no flow log) and one of apache's in the
// repository benchmark: the apache golden with a flow log of 80 000
// flows in the order a run records them (nearOrderedLog: 160 flows
// swapped out of place, 2 638 inversions, none displaced more than 38
// places; 14.4 MB). Over the same log it times the rest of the analysis
// a report gets, encoding it (into a reused buffer) and the flow diff
// against a second such log, each also in ns per flow.
func BenchmarkReadReport(b *testing.B) {
	tpcw, err := os.ReadFile("internal/scenarios/testdata/tpcw-mega.json.golden")
	if err != nil {
		b.Fatal(err)
	}
	golden, err := os.ReadFile("internal/scenarios/testdata/apache.json.golden")
	if err != nil {
		b.Fatal(err)
	}
	r, err := ReadReport(bytes.NewReader(golden))
	if err != nil {
		b.Fatal(err)
	}
	r.Flows = nearOrderedLog(rand.New(rand.NewSource(1)), 80_000, 40, 500)
	other := nearOrderedLog(rand.New(rand.NewSource(2)), 80_000, 40, 500)
	var apache bytes.Buffer
	if err := r.JSON(&apache); err != nil {
		b.Fatal(err)
	}
	perFlow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(r.Flows)), "ns/flow")
	}
	for _, in := range []struct {
		name string
		js   []byte
	}{{"tpcw", tpcw}, {"apache", apache.Bytes()}} {
		for _, read := range []struct {
			name string
			f    func(io.Reader) (*Report, error)
		}{{"ReadReport", ReadReport}, {"ref", refReadReport}} {
			b.Run(in.name+"/"+read.name, func(b *testing.B) {
				b.SetBytes(int64(len(in.js)))
				b.ReportAllocs()
				for b.Loop() {
					if _, err := read.f(bytes.NewReader(in.js)); err != nil {
						b.Fatal(err)
					}
				}
				if in.name == "apache" {
					perFlow(b)
				}
			})
		}
	}
	b.Run("apache/encode", func(b *testing.B) {
		var buf bytes.Buffer
		b.SetBytes(int64(apache.Len()))
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			if err := r.JSON(&buf); err != nil {
				b.Fatal(err)
			}
		}
		perFlow(b)
	})
	b.Run("apache/diff", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			diffFlows(r.Flows, other, &deltaSink{keep: true})
		}
		perFlow(b)
	})
}
