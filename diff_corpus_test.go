package whodunit_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
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
