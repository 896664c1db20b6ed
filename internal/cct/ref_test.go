package cct

// The differential oracle for name-ordered children: refTree is the
// calling context tree as it was when a node kept its children in a Go
// map keyed by FrameID and every ordered walk sorted a fresh copy by
// frame name. The slice-children Tree must be indistinguishable from it
// through every read the package offers.

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

type refNode struct {
	frame    string
	self     int64
	calls    int64
	id       FrameID
	children map[FrameID]*refNode
}

type refTree struct {
	label string
	root  *refNode
	total int64
	ft    *FrameTable
}

func newRefTree(label string, ft *FrameTable) *refTree {
	return &refTree{label: label, root: &refNode{frame: "(root)"}, ft: ft}
}

func (n *refNode) child(ft *FrameTable, id FrameID) *refNode {
	if n.children == nil {
		n.children = make(map[FrameID]*refNode)
	}
	c, ok := n.children[id]
	if !ok {
		c = &refNode{frame: ft.Name(id), id: id}
		n.children[id] = c
	}
	return c
}

func (n *refNode) sortedChildren() []*refNode {
	out := make([]*refNode, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].frame < out[j].frame })
	return out
}

func (n *refNode) inclusive() int64 {
	sum := n.self
	for _, c := range n.children {
		sum += c.inclusive()
	}
	return sum
}

func (t *refTree) pathIDs(ids []FrameID) *refNode {
	n := t.root
	for _, id := range ids {
		n = n.child(t.ft, id)
	}
	return n
}

func (t *refTree) find(path ...string) *refNode {
	n := t.root
	for _, f := range path {
		id, ok := t.ft.ids[f]
		if !ok {
			return nil
		}
		c, ok := n.children[id]
		if !ok {
			return nil
		}
		n = c
	}
	return n
}

func (t *refTree) merge(src *refTree) {
	var rec func(dst, s *refNode)
	rec = func(dst, s *refNode) {
		dst.self += s.self
		dst.calls += s.calls
		for _, c := range s.children {
			rec(dst.child(t.ft, t.ft.ID(c.frame)), c)
		}
	}
	rec(t.root, src.root)
	t.total += src.total
}

func (t *refTree) cloneShared(ft *FrameTable) *refTree {
	out := newRefTree(t.label, ft)
	var rec func(dst, src *refNode)
	rec = func(dst, src *refNode) {
		dst.self, dst.calls = src.self, src.calls
		for _, c := range src.sortedChildren() {
			rec(dst.child(ft, ft.ID(c.frame)), c)
		}
	}
	rec(out.root, t.root)
	out.total = t.total
	return out
}

type refVisit struct {
	frame       string
	depth       int
	self, calls int64
}

func (t *refTree) walk() []refVisit {
	var out []refVisit
	var rec func(n *refNode, depth int)
	rec = func(n *refNode, depth int) {
		for _, c := range n.sortedChildren() {
			out = append(out, refVisit{c.frame, depth, c.self, c.calls})
			rec(c, depth+1)
		}
	}
	rec(t.root, 0)
	return out
}

func (t *refTree) render(w io.Writer, denom int64, minPct float64) {
	if t.label != "" {
		fmt.Fprintf(w, "context: %s\n", t.label)
	}
	var rec func(n *refNode, indent int)
	rec = func(n *refNode, indent int) {
		kids := n.sortedChildren()
		sort.Slice(kids, func(i, j int) bool {
			a, b := kids[i].inclusive(), kids[j].inclusive()
			if a != b {
				return a > b
			}
			return kids[i].frame < kids[j].frame
		})
		for _, c := range kids {
			inc := c.inclusive()
			pct := 0.0
			if denom > 0 {
				pct = 100 * float64(inc) / float64(denom)
			}
			if denom > 0 && pct < minPct {
				continue
			}
			pad := strings.Repeat("  ", indent)
			if denom > 0 {
				fmt.Fprintf(w, "%s%-*s %6.2f%%  (self %d, incl %d)\n", pad, 40-2*indent, c.frame, pct, c.self, inc)
			} else {
				fmt.Fprintf(w, "%s%s (self %d, calls %d)\n", pad, c.frame, c.self, c.calls)
			}
			rec(c, indent+1)
		}
	}
	rec(t.root, 0)
}

func (t *refTree) flatten() []FlatRecord {
	var out []FlatRecord
	var path []string
	var rec func(n *refNode)
	rec = func(n *refNode) {
		for _, c := range n.sortedChildren() {
			path = append(path, c.frame)
			if c.self != 0 || c.calls != 0 {
				p := make([]string, len(path))
				copy(p, path)
				out = append(out, FlatRecord{Path: p, Self: c.self, Calls: c.calls})
			}
			rec(c)
			path = path[:len(path)-1]
		}
	}
	rec(t.root)
	return out
}

// genPair builds the same random tree twice, as a Tree and as a refTree
// over one frame table: random frames (names that share prefixes, so
// byte order matters) at random depths, samples and calls mixed, and
// under one frame a fan-out of at least 256 children inserted in random
// order.
func genPair(r *rand.Rand, ft *FrameTable) (*Tree, *refTree) {
	tr, ref := NewShared("gen", ft), newRefTree("gen", ft)
	names := r.Intn(40) + 2
	frame := func() FrameID {
		i := r.Intn(names)
		return ft.ID([]string{"f", "fn_", "f_", "F"}[i%4] + fmt.Sprint(i))
	}
	add := func(ids []FrameID) {
		switch n := int64(r.Intn(5)); n {
		case 0:
			tr.AddCallIDs(ids)
			ref.pathIDs(ids).calls++
		default:
			tr.AddSamplesIDs(ids, n)
			ref.pathIDs(ids).self += n
			ref.total += n
		}
	}
	for op, ops := 0, r.Intn(200); op < ops; op++ {
		ids := make([]FrameID, r.Intn(8)+1)
		for i := range ids {
			ids[i] = frame()
		}
		add(ids)
	}
	wide := []FrameID{frame(), ft.ID("wide")}
	for _, i := range r.Perm(256 + r.Intn(64)) {
		add(append(wide[:len(wide):len(wide)], ft.ID(fmt.Sprintf("page_%d", i))))
	}
	return tr, ref
}

// sameTree reports the first difference between tr and ref through the
// node reads: children (order, frame, ID, counts) and Inclusive at every
// node, and the Walk sequence.
func sameTree(tr *Tree, ref *refTree) error {
	if tr.Total() != ref.total {
		return fmt.Errorf("total %d, ref %d", tr.Total(), ref.total)
	}
	var rec func(n *Node, rn *refNode) error
	rec = func(n *Node, rn *refNode) error {
		if n.Frame != rn.frame || n.Self != rn.self || n.Calls != rn.calls {
			return fmt.Errorf("node %q (%d, %d), ref %q (%d, %d)", n.Frame, n.Self, n.Calls, rn.frame, rn.self, rn.calls)
		}
		if n.Inclusive() != rn.inclusive() {
			return fmt.Errorf("%q inclusive %d, ref %d", n.Frame, n.Inclusive(), rn.inclusive())
		}
		kids, rkids := n.Children(), rn.sortedChildren()
		if len(kids) != len(rkids) {
			return fmt.Errorf("%q has %d children, ref %d", n.Frame, len(kids), len(rkids))
		}
		for i, c := range kids {
			if c.Parent() != n || c.ID() != rkids[i].id || n.ChildByID(c.ID()) != c {
				return fmt.Errorf("%q child %d: parent, ID or ChildByID wrong", n.Frame, i)
			}
			if err := rec(c, rkids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(tr.Root, ref.root); err != nil {
		return err
	}
	var walked []refVisit
	tr.Walk(func(n *Node, depth int) { walked = append(walked, refVisit{n.Frame, depth, n.Self, n.Calls}) })
	if want := ref.walk(); !reflect.DeepEqual(walked, want) {
		return fmt.Errorf("Walk differs: %d visits, ref %d", len(walked), len(want))
	}
	return nil
}

// sameOutput compares Flatten and Render (tree-local percentages with
// elision, and counts) with the oracle's.
func sameOutput(tr *Tree, ref *refTree) error {
	if got, want := tr.Flatten(), ref.flatten(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Flatten differs: %d records, ref %d", len(got), len(want))
	}
	for _, c := range []struct {
		denom  int64
		minPct float64
	}{{tr.Total(), 2.5}, {0, 0}} {
		var got, want strings.Builder
		tr.Render(&got, c.denom, c.minPct)
		ref.render(&want, c.denom, c.minPct)
		if got.String() != want.String() {
			return fmt.Errorf("Render(%d, %v) differs:\n%s\nref:\n%s", c.denom, c.minPct, got.String(), want.String())
		}
	}
	return nil
}

// TestQuickTreeMatchesMapOracle builds random trees both ways and
// compares every read: Children, ChildByID, Walk, Inclusive,
// Flatten and Render on the tree as built; Find on random paths, present
// and missing; Merge into a tree over the same table and into one over a
// private table; and CloneShared, including the order the clone's table
// interns frames in.
//
// Mutants this test fails (applied by hand, see CHANGES.md): a new child
// appended instead of inserted at its name's place, an insertion
// position off by one, and a Flatten that caps no path.
func TestQuickTreeMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		ft := NewFrameTable()
		tr, ref := genPair(r, ft)
		if err := sameTree(tr, ref); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sameOutput(tr, ref); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// A record's path must be its own: appending to one may not
		// overwrite the next record's.
		if recs := tr.Flatten(); len(recs) > 1 {
			_ = append(recs[0].Path, "clobber")
			if want := ref.flatten(); !reflect.DeepEqual(recs, want) {
				t.Fatalf("seed %d: appending to a flattened path changed another record", seed)
			}
		}

		for i := 0; i < 50; i++ {
			path := make([]string, r.Intn(4)+1)
			for j := range path {
				path[j] = ft.Name(FrameID(r.Intn(ft.Len())))
			}
			if i%5 == 0 {
				path[len(path)-1] = "absent"
			}
			n, rn := tr.Find(path...), ref.find(path...)
			if (n == nil) != (rn == nil) || n != nil && (n.Self != rn.self || n.Inclusive() != rn.inclusive()) {
				t.Fatalf("seed %d: Find(%q) = %v, ref %v", seed, path, n, rn)
			}
		}

		// Merge: another random tree over the same table, and the
		// result merged again into a tree over a table of its own.
		src, rsrc := genPair(r, ft)
		tr.Merge(src)
		ref.merge(rsrc)
		if err := sameTree(tr, ref); err != nil {
			t.Fatalf("seed %d: after Merge: %v", seed, err)
		}
		priv := New("priv")
		rpriv := newRefTree("priv", priv.Frames())
		priv.Merge(tr)
		rpriv.merge(ref)
		if err := sameOutput(priv, rpriv); err != nil {
			t.Fatalf("seed %d: Merge into a private table: %v", seed, err)
		}

		cft, rft := NewFrameTable(), NewFrameTable()
		clone, rclone := tr.CloneShared(cft), ref.cloneShared(rft)
		if !reflect.DeepEqual(cft.names, rft.names) {
			t.Fatalf("seed %d: CloneShared interned %d names in another order than the oracle", seed, cft.Len())
		}
		if err := sameTree(clone, rclone); err != nil {
			t.Fatalf("seed %d: clone: %v", seed, err)
		}
		if err := sameOutput(clone, rclone); err != nil {
			t.Fatalf("seed %d: clone: %v", seed, err)
		}
		// The clone shares nothing mutable: more samples into the
		// original leave it as it was.
		tr.AddSamples([]string{"after", "clone"}, 3)
		if err := sameTree(clone, rclone); err != nil {
			t.Fatalf("seed %d: clone changed under the original: %v", seed, err)
		}
	}
}

// TestReadsDoNotAllocate pins what name-ordered children buy: Children,
// Walk and ChildByID read the tree as it is, and Flatten allocates its
// two arrays and nothing per record.
func TestReadsDoNotAllocate(t *testing.T) {
	tr, _ := genPair(rand.New(rand.NewSource(1)), NewFrameTable())
	nodes := 0
	tr.Walk(func(*Node, int) { nodes++ })
	walk := func() {
		tr.Walk(func(n *Node, _ int) {
			for _, c := range n.Children() {
				if n.ChildByID(c.ID()) != c {
					panic("ChildByID")
				}
			}
		})
	}
	if a := testing.AllocsPerRun(20, walk); a != 0 {
		t.Fatalf("walking %d nodes allocates %.1f times, want 0", nodes, a)
	}
	if a := testing.AllocsPerRun(20, func() { tr.Flatten() }); a != 2 {
		t.Fatalf("Flatten of %d nodes allocates %.1f times, want 2", nodes, a)
	}
}

// TestSortedRecordsKeepsFlattenOrder pins the record order a diff reads
// dumps by: for every tree genPair builds, SortedRecords hands Flatten's
// list back as it is, without allocating, and turns a shuffled copy
// with each record split into duplicates and root records mixed in
// back into the same list.
func TestSortedRecordsKeepsFlattenOrder(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr, _ := genPair(r, NewFrameTable())
		recs := tr.Flatten()
		if got := SortedRecords(recs); len(got) != len(recs) || &got[0] != &recs[0] {
			t.Fatalf("seed %d: SortedRecords copied Flatten's %d records", seed, len(recs))
		}
		if a := testing.AllocsPerRun(5, func() { SortedRecords(recs) }); a != 0 {
			t.Fatalf("seed %d: SortedRecords of Flatten's list allocates %.1f times", seed, a)
		}
		var mixed []FlatRecord
		for _, rec := range recs {
			self, calls := r.Int63n(rec.Self+1), r.Int63n(rec.Calls+1)
			mixed = append(mixed,
				FlatRecord{Path: rec.Path, Self: self, Calls: calls},
				FlatRecord{Path: slices.Clone(rec.Path), Self: rec.Self - self, Calls: rec.Calls - calls})
			if r.Intn(20) == 0 {
				mixed = append(mixed, FlatRecord{Path: []string{}, Self: 1})
			}
		}
		r.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		if got := SortedRecords(mixed); !reflect.DeepEqual(got, recs) {
			t.Fatalf("seed %d: SortedRecords of the mixed copy has %d records, Flatten %d", seed, len(got), len(recs))
		}
	}
}
