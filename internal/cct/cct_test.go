package cct

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// ids interns path in tr's frame table.
func ids(tr *Tree, path ...string) []FrameID {
	out := make([]FrameID, len(path))
	for i, f := range path {
		out[i] = tr.Frames().ID(f)
	}
	return out
}

func TestAddSamplesAndTotals(t *testing.T) {
	tr := New("ctx")
	tr.AddSamplesIDs(ids(tr, "main", "foo"), 3)
	tr.AddSamplesIDs(ids(tr, "main", "foo", "bar"), 2)
	tr.AddSamplesIDs(ids(tr, "main"), 1)
	if tr.Total() != 6 {
		t.Fatalf("total = %d, want 6", tr.Total())
	}
	if c, ok := tr.Find("main", "foo"); !ok || c != (Counts{Self: 3, Inclusive: 5}) {
		t.Fatalf("main>foo = %+v, %v", c, ok)
	}
	if c, _ := tr.Find("main"); c.Inclusive != 6 {
		t.Fatalf("main inclusive = %d, want 6", c.Inclusive)
	}
	if c, ok := tr.Find(); !ok || c != (Counts{Inclusive: 6}) {
		t.Fatalf("root = %+v, %v", c, ok)
	}
}

func TestFindMissing(t *testing.T) {
	tr := New("")
	if _, ok := tr.Find("nope"); ok {
		t.Fatal("Find on empty tree should miss")
	}
	tr.AddSamplesIDs(ids(tr, "a"), 1)
	if _, ok := tr.Find("a", "b"); ok {
		t.Fatal("Find of missing child should miss")
	}
	tr.Frames().ID("b")
	if _, ok := tr.Find("a", "b"); ok {
		t.Fatal("Find of an interned frame that is no child should miss")
	}
}

func TestAddCallCounts(t *testing.T) {
	tr := New("")
	for i := 0; i < 5; i++ {
		tr.AddCallIDs(ids(tr, "main", "f"))
	}
	if c, _ := tr.Find("main", "f"); c.Calls != 5 {
		t.Fatalf("calls = %d, want 5", c.Calls)
	}
	if tr.Total() != 0 {
		t.Fatal("calls must not count as samples")
	}
}

func TestMerge(t *testing.T) {
	a := New("x")
	a.AddSamplesIDs(ids(a, "m", "f"), 2)
	b := New("x")
	b.AddSamplesIDs(ids(b, "m", "g"), 1)
	b.AddSamplesIDs(ids(b, "m", "f"), 3)
	a.Merge(b)
	if a.Total() != 6 {
		t.Fatalf("merged total = %d, want 6", a.Total())
	}
	f, _ := a.Find("m", "f")
	g, _ := a.Find("m", "g")
	if f.Self != 5 || g.Self != 1 {
		t.Fatal("merge did not sum per-node samples")
	}
}

func TestRenderPercentagesAndElision(t *testing.T) {
	tr := New("myctx")
	tr.AddSamplesIDs(ids(tr, "main", "hot"), 97)
	tr.AddSamplesIDs(ids(tr, "main", "cold"), 3)
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

// TestFlattenRoundTrip: Flatten writes a tree's records in path order,
// and SortedRecords brings a mixed-up copy of them back to that list.
func TestFlattenRoundTrip(t *testing.T) {
	tr := New("lbl")
	tr.AddSamplesIDs(ids(tr, "n"), 2)
	tr.AddSamplesIDs(ids(tr, "m", "f", "g"), 4)
	tr.AddSamplesIDs(ids(tr, "m"), 1)
	tr.AddCallIDs(ids(tr, "m", "f"))
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
			tr.AddSamplesIDs(ids(tr, path...), int64(op%7)+1)
		}
		recs := tr.Flatten()
		var total int64
		for i, r := range recs {
			if i > 0 && slices.Compare(recs[i-1].Path, r.Path) >= 0 {
				return false
			}
			total += r.Self
		}
		root, _ := tr.Find()
		return total == tr.Total() && total == root.Inclusive
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
				tr.AddSamplesIDs(ids(tr, "m", string(rune('a'+v%4))), int64(v%5)+1)
			}
			return tr
		}
		a, b := build(xs), build(ys)
		wantTotal := a.Total() + b.Total()
		a.Merge(b)
		root, _ := a.Find()
		return a.Total() == wantTotal && root.Inclusive == wantTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
