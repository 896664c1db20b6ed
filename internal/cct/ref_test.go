package cct

// The differential oracle for the node array: refTree is the calling
// context tree as it was when each node was its own allocation, kept
// its children in a Go map keyed by FrameID, and every ordered walk
// sorted a fresh copy by frame name. The array Tree must be
// indistinguishable from it through every read the package offers.

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

// nodes returns every node below the root in preorder, each with its
// path.
func (t *refTree) nodes() (paths [][]string, nodes []*refNode) {
	var rec func(n *refNode, path []string)
	rec = func(n *refNode, path []string) {
		for _, c := range n.sortedChildren() {
			p := append(path[:len(path):len(path)], c.frame)
			paths, nodes = append(paths, p), append(nodes, c)
			rec(c, p)
		}
	}
	rec(t.root, nil)
	return paths, nodes
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
	fill(r, ft, tr, ref, 8, 256)
	return tr, ref
}

// fill adds the same random paths to tr and ref: paths of 1 to depth
// frames, then under one frame a fan-out of wide to wide+63 children.
func fill(r *rand.Rand, ft *FrameTable, tr *Tree, ref *refTree, depth, wide int) {
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
		ids := make([]FrameID, r.Intn(depth)+1)
		for i := range ids {
			ids[i] = frame()
		}
		add(ids)
	}
	under := []FrameID{frame(), ft.ID("wide")}
	for _, i := range r.Perm(wide + r.Intn(64)) {
		add(append(under[:len(under):len(under)], ft.ID(fmt.Sprintf("page_%d", i))))
	}
}

// sameTree reports the first difference between tr and ref: the
// total, the node count, Find at the root and at every oracle node, and
// the array's own invariants (a node comes after its parent and each
// child names its parent).
func sameTree(tr *Tree, ref *refTree) error {
	if tr.Total() != ref.total {
		return fmt.Errorf("total %d, ref %d", tr.Total(), ref.total)
	}
	paths, nodes := ref.nodes()
	if len(tr.nodes) != len(nodes)+1 {
		return fmt.Errorf("%d nodes, ref %d", len(tr.nodes), len(nodes)+1)
	}
	for i, n := range tr.nodes {
		for _, c := range n.kids {
			if c <= int32(i) || tr.nodes[c].parent != int32(i) {
				return fmt.Errorf("node %d: child %d has parent %d", i, c, tr.nodes[c].parent)
			}
		}
	}
	paths, nodes = append(paths, nil), append(nodes, ref.root)
	for i, path := range paths {
		rn := nodes[i]
		want := Counts{Self: rn.self, Calls: rn.calls, Inclusive: rn.inclusive()}
		if got, ok := tr.Find(path...); !ok || got != want {
			return fmt.Errorf("Find(%q) = %+v, %v; ref %+v", path, got, ok, want)
		}
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
// compares every read: Find at every node, Flatten and Render on the
// tree as built; Find on random paths, present and missing; Merge into a
// tree over the same table and into one over a private table; and
// CloneShared, including the order the clone's table interns frames in.
// Last it resets the tree, grown deeper and wider than the next fill,
// and refills it: the refilled tree must read as the oracle and as a
// fresh tree given the same paths, node for node.
//
// Mutants this test fails (applied by hand, see CHANGES.md): a new child
// appended instead of inserted at its name's place, an insertion
// position off by one, a Flatten that caps no path, an inclusive pass
// that skips the parent sum, a Reset that keeps the root's children,
// and an added node that keeps the old children of the place it takes.
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
			c, ok := tr.Find(path...)
			rn := ref.find(path...)
			if ok != (rn != nil) || ok && c != (Counts{rn.self, rn.calls, rn.inclusive()}) {
				t.Fatalf("seed %d: Find(%q) = %+v, %v; ref %v", seed, path, c, ok, rn)
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

		// Reset and refill, with paths of at most 4 frames and a
		// fan-out under 64: every node the refill adds takes the place
		// of an old node, and its child list's storage.
		grown := len(tr.nodes)
		tr.Reset("refill")
		fresh, rfresh := NewShared("refill", ft), newRefTree("refill", ft)
		fill(rand.New(rand.NewSource(seed)), ft, tr, rfresh, 4, 0)
		fill(rand.New(rand.NewSource(seed)), ft, fresh, newRefTree("refill", ft), 4, 0)
		if len(tr.nodes) >= grown {
			t.Fatalf("seed %d: the refill has %d nodes, the tree it refills had %d", seed, len(tr.nodes), grown)
		}
		if err := sameTree(tr, rfresh); err != nil {
			t.Fatalf("seed %d: after Reset: %v", seed, err)
		}
		if err := sameOutput(tr, rfresh); err != nil {
			t.Fatalf("seed %d: after Reset: %v", seed, err)
		}
		if err := sameNodes(tr, fresh); err != nil {
			t.Fatalf("seed %d: after Reset, against a fresh tree: %v", seed, err)
		}
	}
}

// sameNodes reports the first difference between the node arrays of
// two trees over one frame table, and between their labels, totals and
// Flatten records.
func sameNodes(tr, want *Tree) error {
	if tr.Label != want.Label || tr.Total() != want.Total() {
		return fmt.Errorf("label %q total %d, want %q and %d", tr.Label, tr.Total(), want.Label, want.Total())
	}
	if len(tr.nodes) != len(want.nodes) {
		return fmt.Errorf("%d nodes, want %d", len(tr.nodes), len(want.nodes))
	}
	for i := range tr.nodes {
		a, b := &tr.nodes[i], &want.nodes[i]
		if a.id != b.id || a.parent != b.parent || a.self != b.self || a.calls != b.calls || !slices.Equal(a.kids, b.kids) {
			return fmt.Errorf("node %d is %+v, want %+v", i, *a, *b)
		}
	}
	if got, w := tr.Flatten(), want.Flatten(); !reflect.DeepEqual(got, w) {
		return fmt.Errorf("Flatten differs: %d records, want %d", len(got), len(w))
	}
	return nil
}

// TestCloneSharedDetached: a clone shares no backing array with its
// original. After CloneShared, more samples land on every path of the
// original and a child whose name sorts first ("") joins every inner
// node, which shifts the original's child lists in place where they
// have room; the clone still reads as the oracle's clone, and the
// original as the oracle given the same samples.
//
// Mutant this test fails (see CHANGES.md): a clone that copies the node
// array but shares its child lists.
func TestCloneSharedDetached(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		ft := NewFrameTable()
		tr, ref := genPair(rand.New(rand.NewSource(seed)), ft)
		clone, rclone := tr.CloneShared(NewFrameTable()), ref.cloneShared(NewFrameTable())
		paths, nodes := ref.nodes()
		for i, path := range paths {
			ids := make([]FrameID, len(path), len(path)+1)
			for j, f := range path {
				ids[j] = ft.ID(f)
			}
			tr.AddSamplesIDs(ids, 2)
			ref.pathIDs(ids).self += 2
			ref.total += 2
			if len(nodes[i].children) > 0 {
				ids = append(ids, ft.ID(""))
				tr.AddSamplesIDs(ids, 1)
				ref.pathIDs(ids).self++
				ref.total++
			}
		}
		if err := sameTree(tr, ref); err != nil {
			t.Fatalf("seed %d: original: %v", seed, err)
		}
		if err := sameTree(clone, rclone); err != nil {
			t.Fatalf("seed %d: clone changed under the original: %v", seed, err)
		}
		if err := sameOutput(clone, rclone); err != nil {
			t.Fatalf("seed %d: clone changed under the original: %v", seed, err)
		}
	}
}

// TestReadsDoNotAllocate pins what name-ordered children buy: Flatten
// reads the children as they are and allocates its two arrays and
// nothing per record.
func TestReadsDoNotAllocate(t *testing.T) {
	tr, _ := genPair(rand.New(rand.NewSource(1)), NewFrameTable())
	if a := testing.AllocsPerRun(20, func() { tr.Flatten() }); a != 2 {
		t.Fatalf("Flatten of %d nodes allocates %.1f times, want 2", len(tr.nodes), a)
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
