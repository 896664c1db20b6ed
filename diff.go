package whodunit

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"whodunit/internal/cct"
	"whodunit/internal/stitch"
)

// Report diffing — the paper's §9 case studies are all "run A vs run B,
// explain the delta": the same application profiled before and after a
// code change, under two seeds, in two modes. Diff structurally matches
// two Reports of the same application and keeps only what differs:
// per-stage sample/call deltas, per-context CCTs matched by call path
// over the dumps' records with per-node deltas and added/removed
// subtrees, crosstalk-matrix deltas, shared-memory-flow deltas, and
// stitched-graph edge deltas. Every section is matched by a merge-walk
// of the two sides' entries in key order (see mergeKeys), so a diff the
// size of a served window's allocates nothing but itself. The same walk
// with another sink decides a served window's alert (maxDelta): it
// keeps only the largest delta, allocates nothing, and is what runs at
// every retirement; the window's diff is built when it is first read.
// A diff renders as annotated text, JSON (lossless round-trip via
// ReadDiff), and difffolded-style two-column folded stacks (FoldedDiff)
// for differential flame graphs; MaxDelta powers the CI threshold gate
// of cmd/whodunit-diff.

// Sides of a diff, used in OnlyIn fields for entries present in just one
// report.
const (
	SideA = "a"
	SideB = "b"
)

// NodeDelta is one differing CCT node: the call path (from the tree
// root) with both sides' self samples and call counts. A node present in
// only one report is reported once, as a Subtree row whose counts are
// the subtree's inclusive totals and whose OnlyIn names the side that
// has it; its descendants are not enumerated. Path shares its backing
// array with the compared reports' records.
type NodeDelta struct {
	Path    []string `json:"path"`
	SelfA   int64    `json:"self_a"`
	SelfB   int64    `json:"self_b"`
	CallsA  int64    `json:"calls_a,omitempty"`
	CallsB  int64    `json:"calls_b,omitempty"`
	Subtree bool     `json:"subtree,omitempty"`
	OnlyIn  string   `json:"only_in,omitempty"`
}

// TreeDiff is one differing transaction-context tree within a stage.
// Trees are matched across reports by context key (synopsis prefix +
// local context), the identity the stitcher also matches on. A tree
// matched on both sides carries the lexically smaller of its two labels
// (treeLabel), whichever report is A.
type TreeDiff struct {
	Key    string      `json:"key"`
	Label  string      `json:"label"`
	OnlyIn string      `json:"only_in,omitempty"`
	TotalA int64       `json:"total_a"`
	TotalB int64       `json:"total_b"`
	Nodes  []NodeDelta `json:"nodes,omitempty"`
}

// StageDiff is one differing stage, matched by stage name.
type StageDiff struct {
	Stage     string     `json:"stage"`
	OnlyIn    string     `json:"only_in,omitempty"`
	SamplesA  int64      `json:"samples_a"`
	SamplesB  int64      `json:"samples_b"`
	CallsA    int64      `json:"calls_a,omitempty"`
	CallsB    int64      `json:"calls_b,omitempty"`
	SwitchesA int64      `json:"switches_a,omitempty"`
	SwitchesB int64      `json:"switches_b,omitempty"`
	Trees     []TreeDiff `json:"trees,omitempty"`
}

// CrosstalkDelta is one differing crosstalk-matrix cell, matched by
// (waiter, holder) transaction-type pair.
type CrosstalkDelta struct {
	Waiter string   `json:"waiter"`
	Holder string   `json:"holder"`
	CountA int64    `json:"count_a"`
	CountB int64    `json:"count_b"`
	TotalA Duration `json:"total_a_ns"`
	TotalB Duration `json:"total_b_ns"`
}

// FlowDelta is one differing shared-memory-flow group. Flows are grouped
// by (lock, producer thread, consumer thread) — the stable identity of a
// handoff channel across same-seed runs — and compared by count.
type FlowDelta struct {
	Lock     int   `json:"lock"`
	Producer int   `json:"producer"`
	Consumer int   `json:"consumer"`
	CountA   int64 `json:"count_a"`
	CountB   int64 `json:"count_b"`
}

// EdgeDelta is one differing stitched-graph edge group, matched by the
// (stage, context label) endpoints and the edge kind.
type EdgeDelta struct {
	FromStage string `json:"from_stage"`
	FromLabel string `json:"from_label"`
	ToStage   string `json:"to_stage"`
	ToLabel   string `json:"to_label"`
	Kind      string `json:"kind"`
	CountA    int64  `json:"count_a"`
	CountB    int64  `json:"count_b"`
}

// ReportDiff is the structural difference between two Reports of the
// same application. It holds only differences: an empty diff (Empty)
// means the runs were behaviorally identical at the report level.
type ReportDiff struct {
	AppA     string   `json:"app_a"`
	AppB     string   `json:"app_b"`
	ElapsedA Duration `json:"elapsed_a_ns"`
	ElapsedB Duration `json:"elapsed_b_ns"`
	// WindowA/WindowB carry the compared reports' window metadata when
	// diffing windowed reports (continuous profiling). They are pure
	// provenance: Empty and MaxDelta ignore them, so two behaviorally
	// identical adjacent windows diff empty despite distinct sequence
	// numbers and spans.
	WindowA   *WindowMeta      `json:"window_a,omitempty"`
	WindowB   *WindowMeta      `json:"window_b,omitempty"`
	Stages    []StageDiff      `json:"stages,omitempty"`
	Crosstalk []CrosstalkDelta `json:"crosstalk,omitempty"`
	Flows     []FlowDelta      `json:"flows,omitempty"`
	Edges     []EdgeDelta      `json:"edges,omitempty"`
}

// Diff structurally compares two reports. See ReportDiff.
func Diff(a, b *Report) *ReportDiff {
	s := deltaSink{keep: true}
	d := s.walk(a, b)
	return &d
}

// maxDelta returns Diff(a, b).MaxDelta() without building the diff: the
// same walk, whose sink keeps only the largest delta.
func maxDelta(a, b *Report) int64 {
	var s deltaSink
	s.walk(a, b)
	return s.max
}

// A deltaSink receives every delta the diff walk computes, with its
// magnitude. Diff's sink keeps the deltas, and the walk builds the
// ReportDiff from them; the verdict's keeps none, so the walk appends
// nothing. Both fold the magnitudes into max, the MaxDelta of the diff.
type deltaSink struct {
	keep bool
	max  int64
}

// walk compares a (side A) with b (side B), reporting every delta to s.
// The sections of the diff it returns are nil unless s keeps deltas.
func (s *deltaSink) walk(a, b *Report) ReportDiff {
	d := ReportDiff{AppA: a.App, AppB: b.App, ElapsedA: a.Elapsed, ElapsedB: b.Elapsed,
		WindowA: a.Window, WindowB: b.Window}
	s.max = max(s.max, d.magnitude())
	d.Stages = diffStages(a.Stages, b.Stages, s)
	d.Crosstalk = diffCrosstalk(a.Crosstalk, b.Crosstalk, s)
	d.Flows = diffFlows(a.Flows, b.Flows, s)
	d.Edges = diffEdges(a.Graph, b.Graph, s)
	return d
}

// put reports delta d, of magnitude m, to s and returns out with d
// appended if s keeps deltas.
func put[T any](s *deltaSink, out []T, d T, m int64) []T {
	s.max = max(s.max, m)
	if !s.keep {
		return out
	}
	return append(out, d)
}

// Diff compares r (side A) against other (side B).
func (r *Report) Diff(other *Report) *ReportDiff { return Diff(r, other) }

// Empty reports whether the two reports were identical: same
// application, same elapsed virtual time, and no stage, crosstalk, flow
// or stitched-graph differences.
func (d *ReportDiff) Empty() bool {
	return d.AppA == d.AppB && d.ElapsedA == d.ElapsedB &&
		len(d.Stages) == 0 && len(d.Crosstalk) == 0 && len(d.Flows) == 0 && len(d.Edges) == 0
}

// MaxDelta returns the largest absolute difference the diff records, in
// sample/count units: node self-sample and call deltas, subtree and tree
// totals, stage sample/call/switch deltas, crosstalk wait counts, flow
// counts and stitched-edge counts. Entries present in only one report
// count at least 1, as does an elapsed-time difference — so under
// `-threshold 0` any behavioral divergence gates. Virtual-time
// magnitudes (elapsed, wait durations) are deliberately excluded: they
// are nanosecond-scaled and would swamp a sample-unit threshold.
// The magnitude of each entry counts its own fields only (a stage's
// not its trees', a tree's not its nodes'), so MaxDelta is the largest
// magnitude of any entry, and the diff walk's sink folds the same.
func (d *ReportDiff) MaxDelta() int64 {
	m := d.magnitude()
	for _, sd := range d.Stages {
		m = max(m, sd.magnitude())
		for _, td := range sd.Trees {
			m = max(m, td.magnitude())
			for _, nd := range td.Nodes {
				m = max(m, nd.magnitude())
			}
		}
	}
	for _, cd := range d.Crosstalk {
		m = max(m, cd.magnitude())
	}
	for _, fd := range d.Flows {
		m = max(m, fd.magnitude())
	}
	for _, ed := range d.Edges {
		m = max(m, ed.magnitude())
	}
	return m
}

// absDelta is |a - b|.
func absDelta(a, b int64) int64 {
	if d := a - b; d >= 0 {
		return d
	}
	return b - a
}

// oneIf is 1 when b holds: the least delta a divergence counts.
func oneIf(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (d *ReportDiff) magnitude() int64 {
	return oneIf(d.ElapsedA != d.ElapsedB || d.AppA != d.AppB)
}

func (sd *StageDiff) magnitude() int64 {
	return max(oneIf(sd.OnlyIn != ""), absDelta(sd.SamplesA, sd.SamplesB),
		absDelta(sd.CallsA, sd.CallsB), absDelta(sd.SwitchesA, sd.SwitchesB))
}

func (td *TreeDiff) magnitude() int64 {
	return max(oneIf(td.OnlyIn != ""), absDelta(td.TotalA, td.TotalB))
}

func (nd *NodeDelta) magnitude() int64 {
	return max(absDelta(nd.SelfA, nd.SelfB), absDelta(nd.CallsA, nd.CallsB), oneIf(nd.Subtree))
}

func (cd *CrosstalkDelta) magnitude() int64 {
	return max(absDelta(cd.CountA, cd.CountB), oneIf(cd.TotalA != cd.TotalB))
}

func (fd *FlowDelta) magnitude() int64 { return absDelta(fd.CountA, fd.CountB) }

func (ed *EdgeDelta) magnitude() int64 { return absDelta(ed.CountA, ed.CountB) }

// Exceeds reports whether the diff's MaxDelta is beyond threshold — the
// CI gate of cmd/whodunit-diff.
func (d *ReportDiff) Exceeds(threshold int64) bool { return d.MaxDelta() > threshold }

// Mirrored returns the same diff viewed from the other side: every A
// field swapped with its B counterpart and OnlyIn markers flipped.
// Diff(b, a) equals Diff(a, b).Mirrored(): every section is merged in
// key order, and a tree matched on both sides takes the smaller of its
// labels, neither of which depends on which side is which.
func (d *ReportDiff) Mirrored() *ReportDiff {
	flip := func(side string) string {
		switch side {
		case SideA:
			return SideB
		case SideB:
			return SideA
		}
		return side
	}
	m := &ReportDiff{AppA: d.AppB, AppB: d.AppA, ElapsedA: d.ElapsedB, ElapsedB: d.ElapsedA,
		WindowA: d.WindowB, WindowB: d.WindowA}
	m.Stages = mapped(d.Stages, func(sd StageDiff) StageDiff {
		return StageDiff{
			Stage: sd.Stage, OnlyIn: flip(sd.OnlyIn),
			SamplesA: sd.SamplesB, SamplesB: sd.SamplesA,
			CallsA: sd.CallsB, CallsB: sd.CallsA,
			SwitchesA: sd.SwitchesB, SwitchesB: sd.SwitchesA,
			Trees: mapped(sd.Trees, func(td TreeDiff) TreeDiff {
				return TreeDiff{
					Key: td.Key, Label: td.Label, OnlyIn: flip(td.OnlyIn),
					TotalA: td.TotalB, TotalB: td.TotalA,
					Nodes: mapped(td.Nodes, func(nd NodeDelta) NodeDelta {
						return NodeDelta{
							Path:  nd.Path,
							SelfA: nd.SelfB, SelfB: nd.SelfA,
							CallsA: nd.CallsB, CallsB: nd.CallsA,
							Subtree: nd.Subtree, OnlyIn: flip(nd.OnlyIn),
						}
					}),
				}
			}),
		}
	})
	m.Crosstalk = mapped(d.Crosstalk, func(cd CrosstalkDelta) CrosstalkDelta {
		return CrosstalkDelta{
			Waiter: cd.Waiter, Holder: cd.Holder,
			CountA: cd.CountB, CountB: cd.CountA,
			TotalA: cd.TotalB, TotalB: cd.TotalA,
		}
	})
	m.Flows = mapped(d.Flows, func(fd FlowDelta) FlowDelta {
		return FlowDelta{
			Lock: fd.Lock, Producer: fd.Producer, Consumer: fd.Consumer,
			CountA: fd.CountB, CountB: fd.CountA,
		}
	})
	m.Edges = mapped(d.Edges, func(ed EdgeDelta) EdgeDelta {
		return EdgeDelta{
			FromStage: ed.FromStage, FromLabel: ed.FromLabel,
			ToStage: ed.ToStage, ToLabel: ed.ToLabel, Kind: ed.Kind,
			CountA: ed.CountB, CountB: ed.CountA,
		}
	})
	return m
}

// --- matching ---

// Every section of a diff matches its two sides by one mechanism: each
// side's entries are put in key order (their indices are sorted, ties
// by index), the two ordered runs are merge-walked, and only the
// deltas are reported to the walk's sink (put). Deltas therefore come
// out in key order, which is the same order for Diff(a, b) and
// Diff(b, a). A key repeated within one side is one run: a stage, a
// tree or a crosstalk cell is its run's last entry, as an index by key
// would keep, and an edge group counts its run. The indices and each
// section's deltas are collected in arrays on the stack, and a section
// keeps an exact-length copy, so only a section larger than its array
// allocates more than the diff itself; a sink that keeps no deltas
// collects none, and the walk allocates nothing. The flow diff walks
// its sides the same way over keys it sorts itself (see diffFlows): a
// flow log runs to tens of thousands of flows, nearly in order.

// mergeKeys merge-walks the entries of a and b in the order of their
// keys, key(side, e) for side 0 (a) and 1 (b). For every key of either
// side, in order, visit gets the key, each side's last entry with it
// (nil where the side has none) and how many entries with it each side
// has.
func mergeKeys[E, K any](a, b []E, key func(side int, e *E) K, compare func(x, y K) int, visit func(k K, ea, eb *E, n [2]int64)) {
	var buf [128]int32 // room for a served window's sections, twice over
	order := buf[:0]
	if n := len(a) + len(b); n > len(buf) {
		order = make([]int32, 0, n)
	}
	sides := [2][]E{a, b}
	for s, es := range sides {
		at := len(order)
		for i := range es {
			order = append(order, int32(i))
		}
		slices.SortStableFunc(order[at:], func(i, j int32) int { return compare(key(s, &es[i]), key(s, &es[j])) })
	}
	runs := [2][]int32{order[:len(a)], order[len(a):]}
	for len(runs[0]) > 0 || len(runs[1]) > 0 {
		first := 0 // the side whose next key comes first
		if len(runs[0]) == 0 || len(runs[1]) > 0 && compare(key(0, &a[runs[0][0]]), key(1, &b[runs[1][0]])) > 0 {
			first = 1
		}
		k := key(first, &sides[first][runs[first][0]])
		var last [2]*E
		var n [2]int64
		for s, es := range sides {
			for ; len(runs[s]) > 0 && compare(key(s, &es[runs[s][0]]), k) == 0; runs[s] = runs[s][1:] {
				last[s] = &es[runs[s][0]]
				n[s]++
			}
		}
		visit(k, last[0], last[1], n)
	}
}

// exact returns the deltas a section collected as a slice of their own,
// with no spare capacity, or nil when there are none.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// mapped returns f of every element of s, or nil when s is empty.
func mapped[T, U any](s []T, f func(T) U) []U {
	if len(s) == 0 {
		return nil
	}
	out := make([]U, len(s))
	for i, x := range s {
		out[i] = f(x)
	}
	return out
}

// Stages match by name and trees by context key; Diff and FoldedDiff
// share these keys.
func stageName(_ int, sr *StageReport) string { return sr.Stage }

func treeKey(_ int, td *TreeDump) string { return td.Key }

func diffStages(a, b []StageReport, s *deltaSink) []StageDiff {
	var buf [8]StageDiff
	out := buf[:0]
	mergeKeys(a, b, stageName, strings.Compare, func(name string, sa, sb *StageReport, _ [2]int64) {
		switch {
		case sb == nil:
			sd := oneSidedStage(sa, SideA, s)
			out = put(s, out, sd, sd.magnitude())
		case sa == nil:
			sd := oneSidedStage(sb, SideB, s)
			out = put(s, out, sd, sd.magnitude())
		default:
			sd := StageDiff{
				Stage:    name,
				SamplesA: sa.Samples, SamplesB: sb.Samples,
				CallsA: sa.Calls, CallsB: sb.Calls,
				SwitchesA: sa.CtxtSwitches, SwitchesB: sb.CtxtSwitches,
				Trees: diffTrees(sa.Dump.Trees, sb.Dump.Trees, s),
			}
			if len(sd.Trees) > 0 || sd.SamplesA != sd.SamplesB ||
				sd.CallsA != sd.CallsB || sd.SwitchesA != sd.SwitchesB {
				out = put(s, out, sd, sd.magnitude())
			}
		}
	})
	return exact(out)
}

// oneSidedStage is the delta of a stage only one side has; each of its
// trees is a delta of its own.
func oneSidedStage(sr *StageReport, side string, s *deltaSink) StageDiff {
	sd := StageDiff{Stage: sr.Stage, OnlyIn: side}
	if s.keep && len(sr.Dump.Trees) > 0 {
		sd.Trees = make([]TreeDiff, 0, len(sr.Dump.Trees))
	}
	for _, td := range sr.Dump.Trees {
		t := TreeDiff{Key: td.Key, Label: td.Label, OnlyIn: side}
		if side == SideA {
			t.TotalA = td.Total
		} else {
			t.TotalB = td.Total
		}
		sd.Trees = put(s, sd.Trees, t, t.magnitude())
	}
	if side == SideA {
		sd.SamplesA, sd.CallsA, sd.SwitchesA = sr.Samples, sr.Calls, sr.CtxtSwitches
	} else {
		sd.SamplesB, sd.CallsB, sd.SwitchesB = sr.Samples, sr.Calls, sr.CtxtSwitches
	}
	return sd
}

func diffTrees(a, b []TreeDump, s *deltaSink) []TreeDiff {
	var buf [8]TreeDiff
	out := buf[:0]
	mergeKeys(a, b, treeKey, strings.Compare, func(key string, ta, tb *TreeDump, _ [2]int64) {
		var td TreeDiff
		switch {
		case tb == nil:
			td = TreeDiff{Key: key, Label: ta.Label, OnlyIn: SideA, TotalA: ta.Total}
		case ta == nil:
			td = TreeDiff{Key: key, Label: tb.Label, OnlyIn: SideB, TotalB: tb.Total}
		default:
			td = TreeDiff{Key: key, Label: treeLabel(ta, tb), TotalA: ta.Total, TotalB: tb.Total,
				Nodes: diffRecords(cct.SortedRecords(ta.Records), cct.SortedRecords(tb.Records), s)}
			if len(td.Nodes) == 0 && td.TotalA == td.TotalB {
				return
			}
		}
		out = put(s, out, td, td.magnitude())
	})
	return exact(out)
}

// treeLabel is the label a diff gives a context: its only one, or the
// lexically smaller of two, which does not depend on which report is A.
func treeLabel(a, b *TreeDump) string {
	switch {
	case a == nil:
		return b.Label
	case b == nil:
		return a.Label
	}
	return min(a.Label, b.Label)
}

// diffRecords merges two same-context record lists in path order (see
// cct.SortedRecords) and returns a NodeDelta for every node whose self
// samples or calls differ. A tree's nodes are its records' paths and
// their prefixes. A record at a node the other tree has, as a record or
// as an inner node, is compared with the other record or with zero. A
// node one tree lacks under a node both have tops a one-sided subtree:
// one Subtree row, totalled over the run of records under it.
func diffRecords(a, b []cct.FlatRecord, s *deltaSink) []NodeDelta {
	recs := [2][]cct.FlatRecord{a, b}
	var next [2]int // each side's first unread record
	var buf [8]NodeDelta
	out := buf[:0]
	for next[0] < len(a) || next[1] < len(b) {
		side := 0 // the side whose next record comes first
		switch c := headOrder(a[next[0]:], b[next[1]:]); {
		case c == 0:
			ra, rb := a[next[0]], b[next[1]]
			if ra.Self != rb.Self || ra.Calls != rb.Calls {
				nd := NodeDelta{Path: slices.Clip(ra.Path),
					SelfA: ra.Self, SelfB: rb.Self, CallsA: ra.Calls, CallsB: rb.Calls}
				out = put(s, out, nd, nd.magnitude())
			}
			next[0]++
			next[1]++
			continue
		case c > 0:
			side = 1
		}
		mine, other, o := recs[side], recs[1-side], next[1-side]
		r := mine[next[side]]
		// The other tree has the prefixes r's path shares with its
		// records, the longest with a neighbour of r's place among them.
		depth := 0
		if o > 0 {
			depth = commonPrefix(r.Path, other[o-1].Path)
		}
		if o < len(other) {
			depth = max(depth, commonPrefix(r.Path, other[o].Path))
		}
		var self, calls [2]int64
		nd := NodeDelta{Path: slices.Clip(r.Path)}
		if depth == len(r.Path) {
			next[side]++
			if r.Self == 0 && r.Calls == 0 {
				continue
			}
			self[side], calls[side] = r.Self, r.Calls
		} else {
			nd = NodeDelta{Path: r.Path[: depth+1 : depth+1], Subtree: true, OnlyIn: [2]string{SideA, SideB}[side]}
			for ; next[side] < len(mine) && commonPrefix(mine[next[side]].Path, nd.Path) == depth+1; next[side]++ {
				self[side] += mine[next[side]].Self
				calls[side] += mine[next[side]].Calls
			}
		}
		nd.SelfA, nd.SelfB, nd.CallsA, nd.CallsB = self[0], self[1], calls[0], calls[1]
		out = put(s, out, nd, nd.magnitude())
	}
	return exact(out)
}

// headOrder compares the first records of two path-ordered lists: < 0
// when a's comes first or b is empty, > 0 when b's comes first or a is
// empty, 0 when both are at one path.
func headOrder(a, b []cct.FlatRecord) int {
	switch {
	case len(b) == 0:
		return -1
	case len(a) == 0:
		return 1
	}
	return slices.Compare(a[0].Path, b[0].Path)
}

// commonPrefix returns the length of the longest common prefix of p and q.
func commonPrefix(p, q []string) int {
	n := 0
	for n < len(p) && n < len(q) && p[n] == q[n] {
		n++
	}
	return n
}

// --- crosstalk, flow and graph matching ---

// crosstalkCell is a crosstalk cell's key: its (waiter, holder) pair.
type crosstalkCell struct{ waiter, holder string }

func diffCrosstalk(a, b []CrosstalkPair, s *deltaSink) []CrosstalkDelta {
	var buf [8]CrosstalkDelta
	out := buf[:0]
	cell := func(_ int, p *CrosstalkPair) crosstalkCell { return crosstalkCell{p.Waiter, p.Holder} }
	compare := func(x, y crosstalkCell) int {
		return cmp.Or(strings.Compare(x.waiter, y.waiter), strings.Compare(x.holder, y.holder))
	}
	mergeKeys(a, b, cell, compare, func(k crosstalkCell, pa, pb *CrosstalkPair, _ [2]int64) {
		var d CrosstalkDelta
		if pa != nil {
			d.CountA, d.TotalA = pa.Count, pa.Total
		}
		if pb != nil {
			d.CountB, d.TotalB = pb.Count, pb.Total
		}
		if d.CountA != d.CountB || d.TotalA != d.TotalB {
			d.Waiter, d.Holder = k.waiter, k.holder
			out = put(s, out, d, d.magnitude())
		}
	})
	return exact(out)
}

// diffFlows counts each side's flows per (lock, producer, consumer) and
// returns the keys whose counts differ, in key order. It sorts each
// side's keys and merge-walks the two runs: a flow log holds tens of
// thousands of distinct keys, which a map would hash one by one.
//
// A flow log is appended as flows are detected, so its keys come nearly
// in order: out of place at a few hundred spots, each by a few dozen
// places. Each side is sorted by insertion, which costs one comparison
// a key there. A log that is not nearly ordered would make that
// quadratic, so once the moves pass a budget of a few per key the sort
// finishes with slices.SortFunc instead.
func diffFlows(a, b []FlowEvent, s *deltaSink) []FlowDelta {
	type flowKey struct{ lock, prod, cons int32 }
	less := func(x, y flowKey) bool {
		return x.lock < y.lock || x.lock == y.lock && (x.prod < y.prod || x.prod == y.prod && x.cons < y.cons)
	}
	compare := func(x, y flowKey) int {
		switch {
		case less(x, y):
			return -1
		case less(y, x):
			return 1
		}
		return 0
	}
	sorted := func(fs []FlowEvent) []flowKey {
		ks := make([]flowKey, len(fs))
		for i, f := range fs {
			ks[i] = flowKey{f.Lock, f.Producer, f.Consumer}
		}
		budget := flowSortMoves * len(ks)
		for i := 1; i < len(ks); i++ {
			k, j := ks[i], i
			for ; j > 0 && less(k, ks[j-1]); j-- {
				ks[j] = ks[j-1]
			}
			ks[j] = k
			if budget -= i - j; budget < 0 {
				slices.SortFunc(ks, compare)
				break
			}
		}
		return ks
	}
	ak, bk := sorted(a), sorted(b)
	var out []FlowDelta
	for i, j := 0, 0; i < len(ak) || j < len(bk); {
		var k flowKey // the smaller of the two runs' next keys
		if j == len(bk) || i < len(ak) && !less(bk[j], ak[i]) {
			k = ak[i]
		} else {
			k = bk[j]
		}
		var ca, cb int64
		for ; i < len(ak) && ak[i] == k; i++ {
			ca++
		}
		for ; j < len(bk) && bk[j] == k; j++ {
			cb++
		}
		if ca != cb {
			fd := FlowDelta{
				Lock: int(k.lock), Producer: int(k.prod), Consumer: int(k.cons),
				CountA: ca, CountB: cb,
			}
			out = put(s, out, fd, fd.magnitude())
		}
	}
	return out
}

// flowSortMoves is how many places diffFlows' insertion sort may move
// each key, on average, before it hands the rest to slices.SortFunc.
const flowSortMoves = 4

// diffEdges counts each side's stitched-graph edges per group and
// returns the groups whose counts differ. A group is keyed by its
// endpoints' stages and labels and the edge kind.
func diffEdges(a, b *TransactionGraph, s *deltaSink) []EdgeDelta {
	var buf [16]EdgeDelta
	out := buf[:0]
	graphs := [2]*TransactionGraph{a, b}
	var edges [2][]stitch.Edge
	for side, g := range graphs {
		if g != nil {
			edges[side] = g.Edges
		}
	}
	type group struct {
		from, to *stitch.Node
		kind     string
	}
	key := func(side int, e *stitch.Edge) group {
		return group{&graphs[side].Nodes[e.From], &graphs[side].Nodes[e.To], e.Kind}
	}
	compare := func(x, y group) int {
		if c := compareNodes(x.from, y.from); c != 0 {
			return c
		}
		if c := compareNodes(x.to, y.to); c != 0 {
			return c
		}
		return strings.Compare(x.kind, y.kind)
	}
	mergeKeys(edges[0], edges[1], key, compare, func(k group, _, _ *stitch.Edge, n [2]int64) {
		if n[0] != n[1] {
			ed := EdgeDelta{
				FromStage: k.from.Stage, FromLabel: k.from.Label, ToStage: k.to.Stage, ToLabel: k.to.Label, Kind: k.kind,
				CountA: n[0], CountB: n[1],
			}
			out = put(s, out, ed, ed.magnitude())
		}
	})
	return exact(out)
}

// compareNodes orders stitched-graph nodes by stage, then label.
func compareNodes(x, y *stitch.Node) int {
	if c := strings.Compare(x.Stage, y.Stage); c != 0 {
		return c
	}
	return strings.Compare(x.Label, y.Label)
}

// --- renderers ---

// JSON writes the diff as indented JSON; ReadDiff decodes it losslessly.
func (d *ReportDiff) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("whodunit: encode diff: %w", err)
	}
	return nil
}

// ReadDiff decodes a JSON diff written by ReportDiff.JSON.
func ReadDiff(r io.Reader) (*ReportDiff, error) {
	var d ReportDiff
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("whodunit: decode diff: %w", err)
	}
	return &d, nil
}

func delta(a, b int64) string {
	if b >= a {
		return fmt.Sprintf("+%d", b-a)
	}
	return fmt.Sprintf("%d", b-a)
}

// Text writes the annotated human-readable diff: ± per-node sample
// deltas under each differing context tree, then crosstalk, flow and
// stitched-graph deltas. An empty diff prints a single line saying so.
func (d *ReportDiff) Text(w io.Writer) {
	fmt.Fprintf(w, "=== whodunit diff: %s (A) vs %s (B) ===\n", d.AppA, d.AppB)
	if d.WindowA != nil || d.WindowB != nil {
		wfmt := func(m *WindowMeta) string {
			if m == nil {
				return "(whole run)"
			}
			return fmt.Sprintf("window %d [%.6fs, %.6fs)", m.Seq, m.Start.Seconds(), m.End.Seconds())
		}
		fmt.Fprintf(w, "%s vs %s\n", wfmt(d.WindowA), wfmt(d.WindowB))
	}
	if d.Empty() {
		fmt.Fprintln(w, "reports are identical")
		return
	}
	if d.ElapsedA != d.ElapsedB {
		fmt.Fprintf(w, "virtual time: %.6fs -> %.6fs\n", d.ElapsedA.Seconds(), d.ElapsedB.Seconds())
	}
	for _, sd := range d.Stages {
		switch sd.OnlyIn {
		case SideA:
			fmt.Fprintf(w, "\n- stage %s only in A: %d samples\n", sd.Stage, sd.SamplesA)
		case SideB:
			fmt.Fprintf(w, "\n+ stage %s only in B: %d samples\n", sd.Stage, sd.SamplesB)
		default:
			fmt.Fprintf(w, "\nstage %s: samples %d -> %d (%s)", sd.Stage,
				sd.SamplesA, sd.SamplesB, delta(sd.SamplesA, sd.SamplesB))
			if sd.CallsA != sd.CallsB {
				fmt.Fprintf(w, ", calls %d -> %d", sd.CallsA, sd.CallsB)
			}
			if sd.SwitchesA != sd.SwitchesB {
				fmt.Fprintf(w, ", context switches %d -> %d", sd.SwitchesA, sd.SwitchesB)
			}
			fmt.Fprintln(w)
		}
		for _, td := range sd.Trees {
			switch td.OnlyIn {
			case SideA:
				fmt.Fprintf(w, "  - context only in A: %s (%d samples)\n", td.Label, td.TotalA)
			case SideB:
				fmt.Fprintf(w, "  + context only in B: %s (%d samples)\n", td.Label, td.TotalB)
			default:
				fmt.Fprintf(w, "  context %s: %d -> %d (%s)\n",
					td.Label, td.TotalA, td.TotalB, delta(td.TotalA, td.TotalB))
			}
			for _, nd := range td.Nodes {
				frames := strings.Join(nd.Path, ";")
				switch {
				case nd.OnlyIn == SideA:
					fmt.Fprintf(w, "    - %s (subtree, %d samples)\n", frames, nd.SelfA)
				case nd.OnlyIn == SideB:
					fmt.Fprintf(w, "    + %s (subtree, %d samples)\n", frames, nd.SelfB)
				default:
					fmt.Fprintf(w, "    ± %s: self %d -> %d (%s)", frames,
						nd.SelfA, nd.SelfB, delta(nd.SelfA, nd.SelfB))
					if nd.CallsA != nd.CallsB {
						fmt.Fprintf(w, ", calls %d -> %d", nd.CallsA, nd.CallsB)
					}
					fmt.Fprintln(w)
				}
			}
		}
	}
	if len(d.Crosstalk) > 0 {
		fmt.Fprintf(w, "\ncrosstalk deltas (waiter <- holder):\n")
		for _, cd := range d.Crosstalk {
			fmt.Fprintf(w, "  %-24s %-24s count %d -> %d, total wait %.2fms -> %.2fms\n",
				cd.Waiter, cd.Holder, cd.CountA, cd.CountB, cd.TotalA.Millis(), cd.TotalB.Millis())
		}
	}
	if len(d.Flows) > 0 {
		fmt.Fprintf(w, "\nshared-memory flow deltas:\n")
		for _, fd := range d.Flows {
			fmt.Fprintf(w, "  lock %d t%d->t%d: %d -> %d flows\n",
				fd.Lock, fd.Producer, fd.Consumer, fd.CountA, fd.CountB)
		}
	}
	if len(d.Edges) > 0 {
		fmt.Fprintf(w, "\nstitched-graph edge deltas:\n")
		for _, ed := range d.Edges {
			fmt.Fprintf(w, "  [%s] %s -%s-> [%s] %s: %d -> %d\n",
				ed.FromStage, ed.FromLabel, ed.Kind, ed.ToStage, ed.ToLabel, ed.CountA, ed.CountB)
		}
	}
}

// FoldedDiff writes the two reports as two-column folded stacks — the
// difffolded.pl format flamegraph.pl consumes for differential flame
// graphs:
//
//	stage;context;frame;frame... selfA selfB
//
// Every call path with samples in either report is emitted (unchanged
// paths included — the renderer needs both columns to size and color
// frames), in the deterministic stage/context/path order Diff uses.
func FoldedDiff(a, b *Report, w io.Writer) {
	mergeKeys(a.Stages, b.Stages, stageName, strings.Compare, func(stage string, sa, sb *StageReport, _ [2]int64) {
		var ta, tb []TreeDump
		if sa != nil {
			ta = sa.Dump.Trees
		}
		if sb != nil {
			tb = sb.Dump.Trees
		}
		mergeKeys(ta, tb, treeKey, strings.Compare, func(_ string, da, db *TreeDump, _ [2]int64) {
			label := treeLabel(da, db)
			var ra, rb []cct.FlatRecord
			if da != nil {
				ra = cct.SortedRecords(da.Records)
			}
			if db != nil {
				rb = cct.SortedRecords(db.Records)
			}
			for len(ra) > 0 || len(rb) > 0 {
				var path []string
				var selfA, selfB int64
				c := headOrder(ra, rb)
				if c <= 0 {
					path, selfA, ra = ra[0].Path, ra[0].Self, ra[1:]
				}
				if c >= 0 {
					path, selfB, rb = rb[0].Path, rb[0].Self, rb[1:]
				}
				if selfA != 0 || selfB != 0 {
					fmt.Fprintf(w, "%s;%s;%s %d %d\n", stage, label, strings.Join(path, ";"), selfA, selfB)
				}
			}
		})
	})
}
