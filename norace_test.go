//go:build !race

package whodunit_test

import (
	"testing"

	"whodunit"
	"whodunit/internal/stitch"
)

// raceEnabled reports whether the test binary carries the race detector,
// whose instrumentation allocates: the allocation pins skip.
const raceEnabled = false

// TestDiffAllocatesOnlyItsResult: the auto-diff of two windows in the
// serve workload's shape allocates the diff it returns and nothing
// else: the ReportDiff and one array for each non-empty slice in it
// (the stages, the edges, each stage's trees and each tree's nodes).
// The matching keeps its sorted indices and the deltas it collects on
// the stack, so its own allowance is nothing. The pair has more edge
// groups than a map keeps on the stack, so a map over them shows here.
func TestDiffAllocatesOnlyItsResult(t *testing.T) {
	const matching = 0 // what matching may allocate beside the result
	a, b := whodunit.ServeWindowPair()
	d := whodunit.Diff(a, b)
	result := 1 // the ReportDiff
	for _, n := range []int{len(d.Stages), len(d.Crosstalk), len(d.Flows), len(d.Edges)} {
		result += min(n, 1)
	}
	trees := 0
	for _, sd := range d.Stages {
		result += min(len(sd.Trees), 1)
		for _, td := range sd.Trees {
			trees++
			result += min(len(td.Nodes), 1)
		}
	}
	if len(d.Stages) != 7 || trees < 8 || len(d.Edges) <= 8 {
		t.Fatalf("diff of %d stages, %d trees, %d edge groups; want 7, at least 8 and more than 8", len(d.Stages), trees, len(d.Edges))
	}
	got := testing.AllocsPerRun(100, func() { whodunit.Diff(a, b) })
	if got > float64(result+matching) {
		t.Fatalf("Diff allocates %.1f times; its result holds %d arrays, the matching may add %d", got, result, matching)
	}
	t.Logf("Diff allocates %.1f times for a result of %d arrays", got, result)
}

// TestVerdictAllocatesNothing: the verdict a served window's
// retirement takes walks the pair as Diff does but keeps no delta, so
// on a pair in the serve workload's shape it allocates nothing.
func TestVerdictAllocatesNothing(t *testing.T) {
	a, b := whodunit.ServeWindowPair()
	if whodunit.Verdict(a, b) == 0 {
		t.Fatal("the window pair does not differ")
	}
	if got := testing.AllocsPerRun(100, func() { whodunit.Verdict(a, b) }); got != 0 {
		t.Fatalf("the verdict allocates %.1f times, want 0", got)
	}
}

// TestStitchAllocatesOnlyItsGraph: restitching a window in the serve
// workload's shape allocates the graph it returns and nothing else: the
// Graph, its Nodes and its Edges. The stitcher's indexes (a node's
// sender key and prefix chain) are arrays on the stack, where each was
// a map. The pair's windows have more trees than a map keeps on the
// stack, so a map over them shows here.
func TestStitchAllocatesOnlyItsGraph(t *testing.T) {
	const graph = 3 // the Graph, its Nodes and its Edges
	a, b := whodunit.ServeWindowPair()
	for _, r := range []*whodunit.Report{a, b} {
		dumps := make([]whodunit.StageDump, len(r.Stages))
		for i := range r.Stages {
			dumps[i] = r.Stages[i].Dump
		}
		g := stitch.Build(dumps)
		if len(g.Nodes) <= 8 || len(g.Edges) == 0 {
			t.Fatalf("graph of %d nodes and %d edges; want more than 8 and some", len(g.Nodes), len(g.Edges))
		}
		if got := testing.AllocsPerRun(100, func() { stitch.Build(dumps) }); got > graph {
			t.Fatalf("restitching a window allocates %.1f times; its graph holds %d", got, graph)
		}
	}
}
