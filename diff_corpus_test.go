package whodunit_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"whodunit"
	"whodunit/internal/scenarios"
)

// TestDiffCorpusMatchesRef diffs each corpus scenario's golden report
// against a fresh run of the scenario at seed 9 and demands the
// oracle's diff (RefDiff: every section matched through maps, both
// sides' records rebuilt into trees) and folded diff, byte for byte:
// the generated pairs of TestQuickDiffTreesMatchesRef on trees and
// graphs the applications grew.
func TestDiffCorpusMatchesRef(t *testing.T) {
	list := scenarios.All()
	for i := range list {
		list[i].Defaults.Seed = 9
	}
	differ := 0
	for i, rep := range scenarios.RunAll(list) {
		name := list[i].Name
		data, err := os.ReadFile(filepath.Join("internal", "scenarios", "testdata", name+".json.golden"))
		if err != nil {
			t.Fatal(err)
		}
		golden, err := whodunit.ReadReport(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := whodunit.Diff(golden, rep), whodunit.RefDiff(golden, rep)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Diff(golden, seed 9) differs from the oracle's", name)
		}
		if len(got.Stages) > 0 {
			differ++
		}
		var fgot, fwant bytes.Buffer
		whodunit.FoldedDiff(golden, rep, &fgot)
		whodunit.RefFoldedDiff(golden, rep, &fwant)
		if !bytes.Equal(fgot.Bytes(), fwant.Bytes()) {
			t.Errorf("%s: FoldedDiff(golden, seed 9) wrote %d bytes, the oracle %d", name, fgot.Len(), fwant.Len())
		}
	}
	if differ == 0 {
		t.Fatal("no scenario's stages differ at seed 9")
	}
	t.Logf("%d of %d scenarios differ in their stages at seed 9", differ, len(list))
}

// TestQuickVerdictMatchesDiff: the alert verdict a served window's
// retirement takes (Verdict: the diff walk with a sink that keeps only
// the largest delta) equals Diff(a, b).MaxDelta(), both ways round, on
// the diff's quick-test generators, on the serve workload's window pair,
// and on every adjacent pair of windows of the serving scenarios, whose
// events' MaxDelta must also be their auto-diff's. Some generated pairs
// take their largest delta from a subtree row alone, so a verdict that
// skips subtree rows shows.
func TestQuickVerdictMatchesDiff(t *testing.T) {
	check := func(what string, a, b *whodunit.Report) {
		t.Helper()
		for _, p := range [][2]*whodunit.Report{{a, b}, {b, a}} {
			if got, want := whodunit.Verdict(p[0], p[1]), whodunit.Diff(p[0], p[1]).MaxDelta(); got != want {
				t.Fatalf("%s: verdict %d, Diff's MaxDelta %d", what, got, want)
			}
		}
	}
	subtreeMax := 0
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := whodunit.RandReport(rng), whodunit.RandReport(rng)
		check(fmt.Sprintf("seed %d: randReport", seed), a, b)
		a, b, _ = whodunit.DiffPair(rng)
		check(fmt.Sprintf("seed %d: diffPair", seed), a, b)
		if d := whodunit.Diff(a, b); withoutSubtrees(d).MaxDelta() < d.MaxDelta() {
			subtreeMax++
		}
		a, b = whodunit.GraphReport(rng), whodunit.GraphReport(rng)
		check(fmt.Sprintf("seed %d: graphReport", seed), a, b)
	}
	if subtreeMax == 0 {
		t.Fatal("no generated pair takes its largest delta from a subtree row alone")
	}
	t.Logf("%d of 1000 diffPair pairs take their largest delta from a subtree row alone", subtreeMax)
	a, b := whodunit.ServeWindowPair()
	check("serveWindowPair", a, b)
	for _, s := range scenarios.ServeAll() {
		evs := s.Events(6)
		for i := 1; i < len(evs); i++ {
			check(fmt.Sprintf("%s windows %d and %d", s.Name, i-1, i), evs[i-1].Report, evs[i].Report)
		}
		for _, ev := range evs {
			if d := ev.Diff(); d != nil && ev.MaxDelta != d.MaxDelta() {
				t.Fatalf("%s window %d: MaxDelta %d, its auto-diff's %d", s.Name, ev.Report.Window.Seq, ev.MaxDelta, d.MaxDelta())
			}
		}
	}
}

// withoutSubtrees returns d with its subtree rows dropped.
func withoutSubtrees(d *whodunit.ReportDiff) *whodunit.ReportDiff {
	c := *d
	c.Stages = slices.Clone(d.Stages)
	for i := range c.Stages {
		trees := slices.Clone(c.Stages[i].Trees)
		for j := range trees {
			trees[j].Nodes = slices.DeleteFunc(slices.Clone(trees[j].Nodes),
				func(nd whodunit.NodeDelta) bool { return nd.Subtree })
		}
		c.Stages[i].Trees = trees
	}
	return &c
}
