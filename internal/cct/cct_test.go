package cct

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddSamplesAndTotals(t *testing.T) {
	tr := New("ctx")
	tr.AddSamples([]string{"main", "foo"}, 3)
	tr.AddSamples([]string{"main", "foo", "bar"}, 2)
	tr.AddSamples([]string{"main"}, 1)
	if tr.Total() != 6 {
		t.Fatalf("total = %d, want 6", tr.Total())
	}
	if n := tr.Find("main", "foo"); n == nil || n.Self != 3 {
		t.Fatalf("main>foo self = %v", n)
	}
	if inc := tr.Find("main").Inclusive(); inc != 6 {
		t.Fatalf("main inclusive = %d, want 6", inc)
	}
	if inc := tr.Find("main", "foo").Inclusive(); inc != 5 {
		t.Fatalf("foo inclusive = %d, want 5", inc)
	}
}

func TestFindMissing(t *testing.T) {
	tr := New("")
	if tr.Find("nope") != nil {
		t.Fatal("Find on empty tree should be nil")
	}
	tr.AddSamples([]string{"a"}, 1)
	if tr.Find("a", "b") != nil {
		t.Fatal("Find of missing child should be nil")
	}
}

func TestAddCallCounts(t *testing.T) {
	tr := New("")
	for i := 0; i < 5; i++ {
		tr.AddCall([]string{"main", "f"})
	}
	if n := tr.Find("main", "f"); n.Calls != 5 {
		t.Fatalf("calls = %d, want 5", n.Calls)
	}
	if tr.Total() != 0 {
		t.Fatal("calls must not count as samples")
	}
}

func TestMerge(t *testing.T) {
	a := New("x")
	a.AddSamples([]string{"m", "f"}, 2)
	b := New("x")
	b.AddSamples([]string{"m", "f"}, 3)
	b.AddSamples([]string{"m", "g"}, 1)
	a.Merge(b)
	if a.Total() != 6 {
		t.Fatalf("merged total = %d, want 6", a.Total())
	}
	if a.Find("m", "f").Self != 5 || a.Find("m", "g").Self != 1 {
		t.Fatal("merge did not sum per-node samples")
	}
}

func TestChildrenSorted(t *testing.T) {
	tr := New("")
	for _, f := range []string{"zeta", "alpha", "mid"} {
		tr.Root.Child(f)
	}
	kids := tr.Root.Children()
	names := []string{kids[0].Frame, kids[1].Frame, kids[2].Frame}
	if !reflect.DeepEqual(names, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("children order = %v", names)
	}
}

func TestRenderPercentagesAndElision(t *testing.T) {
	tr := New("myctx")
	tr.AddSamples([]string{"main", "hot"}, 97)
	tr.AddSamples([]string{"main", "cold"}, 3)
	var sb strings.Builder
	tr.Render(&sb, tr.Total(), 5.0)
	out := sb.String()
	if !strings.Contains(out, "context: myctx") {
		t.Fatalf("missing label: %s", out)
	}
	if !strings.Contains(out, "hot") || strings.Contains(out, "cold") {
		t.Fatalf("elision wrong: %s", out)
	}
	if !strings.Contains(out, "97.00%") {
		t.Fatalf("missing percentage: %s", out)
	}
}

func TestWalkPreorder(t *testing.T) {
	tr := New("")
	tr.AddSamples([]string{"a", "b"}, 1)
	tr.AddSamples([]string{"a", "c"}, 1)
	tr.AddSamples([]string{"d"}, 1)
	var seen []string
	tr.Walk(func(n *Node, depth int) { seen = append(seen, n.Frame) })
	if !reflect.DeepEqual(seen, []string{"a", "b", "c", "d"}) {
		t.Fatalf("walk order = %v", seen)
	}
}

// TestFlattenRoundTrip: Flatten writes a tree's records in path order,
// and SortedRecords brings a mixed-up copy of them back to that list.
func TestFlattenRoundTrip(t *testing.T) {
	tr := New("lbl")
	tr.AddSamples([]string{"m", "f", "g"}, 4)
	tr.AddSamples([]string{"n"}, 2)
	tr.AddSamples([]string{"m"}, 1)
	tr.AddCall([]string{"m", "f"})
	want := []FlatRecord{
		{Path: []string{"m"}, Self: 1},
		{Path: []string{"m", "f"}, Calls: 1},
		{Path: []string{"m", "f", "g"}, Self: 4},
		{Path: []string{"n"}, Self: 2},
	}
	if recs := tr.Flatten(); !reflect.DeepEqual(recs, want) {
		t.Fatalf("Flatten = %v, want %v", recs, want)
	}
	// Out of order, a path split in two, and the root: SortedRecords
	// gives Flatten's list back.
	mixed := []FlatRecord{want[3], want[2], {Path: []string{"m"}}, {Path: nil, Self: 3}, want[1], want[0]}
	if got := SortedRecords(mixed); !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedRecords = %v, want %v", got, want)
	}
	// A root record in front of a list in path order is dropped too.
	rooted := append([]FlatRecord{{Path: []string{}, Self: 3}}, want...)
	if got := SortedRecords(rooted); !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedRecords of a rooted list = %v, want %v", got, want)
	}
}

func TestQuickFlattenPreservesTotals(t *testing.T) {
	frames := []string{"a", "b", "c", "d"}
	f := func(ops []uint16) bool {
		tr := New("q")
		for _, op := range ops {
			depth := int(op%3) + 1
			path := make([]string, depth)
			for i := range path {
				path[i] = frames[int(op>>(2*i))%len(frames)]
			}
			tr.AddSamples(path, int64(op%7)+1)
		}
		recs := tr.Flatten()
		var total int64
		for i, r := range recs {
			if i > 0 && slices.Compare(recs[i-1].Path, r.Path) >= 0 {
				return false
			}
			total += r.Self
		}
		return total == tr.Total() && total == tr.Root.Inclusive()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeIsAdditive(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		build := func(vals []uint8) *Tree {
			tr := New("")
			for _, v := range vals {
				tr.AddSamples([]string{"m", string(rune('a' + v%4))}, int64(v%5)+1)
			}
			return tr
		}
		a, b := build(xs), build(ys)
		wantTotal := a.Total() + b.Total()
		a.Merge(b)
		return a.Total() == wantTotal && a.Root.Inclusive() == wantTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
