// Package cct implements Calling Context Trees (Ammons/Ball/Larus), the
// data structure Whodunit's call-path profiler core keeps per transaction
// context (§7.1). Each tree accumulates statistical profile samples (and
// call counts, for the gprof-style baseline) along call paths; the root of
// each tree is annotated with the transaction context it profiles.
//
// Frame names are interned: a FrameTable maps each distinct procedure
// name to a small integer FrameID exactly once, and the hot accumulation
// paths (AddSamplesIDs, AddCallIDs) walk ID slices without touching a
// string. A node keeps its children in one slice ordered by frame name:
// lookup scans it by FrameID, and a new child is inserted at its name's
// place, so every deterministic walk (Children, Walk, Flatten,
// CloneShared) reads the slice as it is, with no sorted copy. Only
// Render, whose order is by inclusive count, sorts (a copy). Flatten's
// records are in path order, the trees' preorder, so a reader of two
// dumps (a report diff) merges their record lists without rebuilding a
// tree. A profiler shares one FrameTable across all its trees so a
// probe's interned call stack is valid in whichever context tree a
// sample lands.
package cct

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// FrameID is an interned procedure-frame name. IDs are dense and start at
// 0, so they double as indexes into the table's name slice.
type FrameID uint32

// FrameTable interns frame names. It is not safe for concurrent use; each
// profiler (or tree) owns one.
type FrameTable struct {
	ids   map[string]FrameID
	names []string
}

// NewFrameTable returns an empty table.
func NewFrameTable() *FrameTable {
	return &FrameTable{ids: make(map[string]FrameID)}
}

// ID interns name, returning its stable FrameID.
func (ft *FrameTable) ID(name string) FrameID {
	if id, ok := ft.ids[name]; ok {
		return id
	}
	id := FrameID(len(ft.names))
	ft.ids[name] = id
	ft.names = append(ft.names, name)
	return id
}

// Name resolves an ID issued by this table.
func (ft *FrameTable) Name(id FrameID) string { return ft.names[id] }

// Lookup returns the ID of an already-interned name without interning it.
func (ft *FrameTable) Lookup(name string) (FrameID, bool) {
	id, ok := ft.ids[name]
	return id, ok
}

// Len reports the number of interned frames.
func (ft *FrameTable) Len() int { return len(ft.names) }

// Node is one procedure frame in a calling context tree. Self counts
// samples attributed to the frame itself; call counts are kept for the
// instrumented (gprof-like) mode. Its children are a slice ordered by
// frame name (distinct children have distinct names), so a fan-out of k
// costs a k-long scan per lookup and no per-node map.
type Node struct {
	Frame    string // resolved name, fixed at node creation
	Self     int64
	Calls    int64
	id       FrameID
	ft       *FrameTable
	parent   *Node
	children []*Node // ordered by Frame
}

// Tree is a calling context tree. Label carries the transaction-context
// annotation (a rendered context or synopsis chain).
type Tree struct {
	Label string
	Root  *Node // points at root: a tree and its root are one allocation
	total int64
	ft    *FrameTable
	root  Node
}

// New returns an empty tree annotated with label, owning a private frame
// table.
func New(label string) *Tree { return NewShared(label, NewFrameTable()) }

// NewShared returns an empty tree annotated with label whose frames are
// interned in ft. Trees sharing one table can exchange FrameIDs directly
// — the profiler keeps one table per stage so a probe's interned stack
// lands in any of the stage's per-context trees without re-interning.
func NewShared(label string, ft *FrameTable) *Tree {
	t := &Tree{Label: label, ft: ft, root: Node{Frame: "(root)", ft: ft}}
	t.Root = &t.root
	return t
}

// Frames returns the tree's frame table.
func (t *Tree) Frames() *FrameTable { return t.ft }

// Total reports the total number of samples in the tree.
func (t *Tree) Total() int64 { return t.total }

// Child returns (creating if necessary) the child of n for frame.
func (n *Node) Child(frame string) *Node { return n.child(n.ft.ID(frame)) }

// child is the hot-path variant of Child: the frame is already interned.
// A new child goes in at its name's place, so the slice stays ordered.
func (n *Node) child(id FrameID) *Node {
	if c := n.ChildByID(id); c != nil {
		return c
	}
	c := &Node{Frame: n.ft.Name(id), id: id, ft: n.ft, parent: n}
	i, _ := slices.BinarySearchFunc(n.children, c.Frame, func(e *Node, name string) int {
		return strings.Compare(e.Frame, name)
	})
	n.children = slices.Insert(n.children, i, c)
	return c
}

// Parent returns the parent node (nil for the root).
func (n *Node) Parent() *Node { return n.parent }

// ID returns the node's interned frame id (meaningless for the root).
func (n *Node) ID() FrameID { return n.id }

// ChildByID returns the child for an already-interned frame without
// creating it, or nil: a scan of the children by FrameID.
func (n *Node) ChildByID(id FrameID) *Node {
	for _, c := range n.children {
		if c.id == id {
			return c
		}
	}
	return nil
}

// Children returns the node's children sorted by frame name, for
// deterministic iteration. The slice is the node's own: callers must
// not modify it, and a later insertion under n may change it.
func (n *Node) Children() []*Node { return n.children }

// Path returns the node for the given call path, creating intermediate
// nodes as needed. An empty path returns the root.
func (t *Tree) Path(path []string) *Node {
	n := t.Root
	for _, f := range path {
		n = n.child(t.ft.ID(f))
	}
	return n
}

// PathIDs is Path for an already-interned call path.
func (t *Tree) PathIDs(ids []FrameID) *Node {
	n := t.Root
	for _, id := range ids {
		n = n.child(id)
	}
	return n
}

// Find returns the node at path without creating it, or nil.
func (t *Tree) Find(path ...string) *Node {
	n := t.Root
	for _, f := range path {
		id, ok := t.ft.ids[f]
		if !ok {
			return nil
		}
		if n = n.ChildByID(id); n == nil {
			return nil
		}
	}
	return n
}

// AddSamples attributes n samples to the leaf of path.
func (t *Tree) AddSamples(path []string, n int64) {
	t.Path(path).Self += n
	t.total += n
}

// AddSamplesIDs is AddSamples for an already-interned call path — the
// profiler's per-sample hot path. It performs no string work and, once
// the path's nodes exist, no allocation.
func (t *Tree) AddSamplesIDs(ids []FrameID, n int64) {
	t.PathIDs(ids).Self += n
	t.total += n
}

// AddCall counts one invocation of the leaf of path (instrumented mode).
func (t *Tree) AddCall(path []string) {
	t.Path(path).Calls++
}

// AddCallIDs is AddCall for an already-interned call path.
func (t *Tree) AddCallIDs(ids []FrameID) {
	t.PathIDs(ids).Calls++
}

// Inclusive reports the node's inclusive sample count (itself plus all
// descendants).
func (n *Node) Inclusive() int64 {
	sum := n.Self
	for _, c := range n.children {
		sum += c.Inclusive()
	}
	return sum
}

// Merge adds every sample and call count of src into t. The trees need
// not share a frame table: frames are matched by name.
func (t *Tree) Merge(src *Tree) {
	mergeNode(t.Root, src.Root)
	t.total += src.total
}

func mergeNode(dst, src *Node) {
	dst.Self += src.Self
	dst.Calls += src.Calls
	for _, c := range src.children {
		mergeNode(dst.Child(c.Frame), c)
	}
}

// CloneShared returns a deep copy of t whose frames are interned in ft —
// the detach step of a profiler snapshot. The copy shares nothing mutable
// with t (frame-name strings are immutable), so it can be read from any
// goroutine while further samples accumulate into t. Children are copied
// in name order, so the clone's frame table interns names in a
// deterministic order; each sibling set is copied into one array of
// nodes and one exactly sized child slice.
func (t *Tree) CloneShared(ft *FrameTable) *Tree {
	out := NewShared(t.Label, ft)
	cloneNode(out.Root, t.Root, ft)
	out.total = t.total
	return out
}

func cloneNode(dst, src *Node, ft *FrameTable) {
	dst.Self, dst.Calls = src.Self, src.Calls
	if len(src.children) == 0 {
		return
	}
	nodes := make([]Node, len(src.children))
	dst.children = make([]*Node, len(src.children))
	for i, c := range src.children {
		d := &nodes[i]
		d.Frame, d.id, d.ft, d.parent = c.Frame, ft.ID(c.Frame), ft, dst
		dst.children[i] = d
		cloneNode(d, c, ft)
	}
}

// Walk visits every node in deterministic (preorder, name-sorted) order.
// depth is 0 for the root's immediate children.
func (t *Tree) Walk(fn func(n *Node, depth int)) { walk(t.Root, 0, fn) }

func walk(n *Node, depth int, fn func(n *Node, depth int)) {
	for _, c := range n.children {
		fn(c, depth)
		walk(c, depth+1, fn)
	}
}

// Render writes an indented text rendering of the tree to w. denom is the
// sample count used as 100% (pass t.Total() for tree-local percentages or
// a profile-wide total for Whodunit-style figures); 0 suppresses
// percentages. Nodes are ordered by descending inclusive count, ties by
// name, and frames below minPct% of denom are elided.
func (t *Tree) Render(w io.Writer, denom int64, minPct float64) {
	if t.Label != "" {
		fmt.Fprintf(w, "context: %s\n", t.Label)
	}
	var rec func(n *Node, indent int)
	rec = func(n *Node, indent int) {
		kids := slices.Clone(n.children)
		sort.Slice(kids, func(i, j int) bool {
			a, b := kids[i].Inclusive(), kids[j].Inclusive()
			if a != b {
				return a > b
			}
			return kids[i].Frame < kids[j].Frame
		})
		for _, c := range kids {
			inc := c.Inclusive()
			pct := 0.0
			if denom > 0 {
				pct = 100 * float64(inc) / float64(denom)
			}
			if denom > 0 && pct < minPct {
				continue
			}
			pad := strings.Repeat("  ", indent)
			if denom > 0 {
				fmt.Fprintf(w, "%s%-*s %6.2f%%  (self %d, incl %d)\n", pad, 40-2*indent, c.Frame, pct, c.Self, inc)
			} else {
				fmt.Fprintf(w, "%s%s (self %d, calls %d)\n", pad, c.Frame, c.Self, c.Calls)
			}
			rec(c, indent+1)
		}
	}
	rec(t.Root, 0)
}

// FlatRecord is a serializable (path, self, calls) triple; a tree flattens
// to a list of records. Used for writing per-stage profiles to disk for
// post-mortem stitching and diffing.
type FlatRecord struct {
	Path  []string `json:"path"`
	Self  int64    `json:"self"`
	Calls int64    `json:"calls,omitempty"`
}

// Flatten converts the tree to records in path order, including only
// nodes with nonzero self samples or calls. Path order is slices.Compare
// on the paths: a path comes before its extensions and siblings are in
// name order, which is the tree's preorder. The records share one
// exactly sized array, and their paths another, each path capped at its
// own length.
func (t *Tree) Flatten() []FlatRecord {
	nrec, npath := countRecords(t.Root, 1)
	if nrec == 0 {
		return nil
	}
	out, _ := flatten(t.Root, 1, make([]FlatRecord, 0, nrec), make([]string, npath))
	return out
}

// countRecords reports how many records Flatten emits under n, whose
// children sit at depth depth, and the total length of their paths.
func countRecords(n *Node, depth int) (nrec, npath int) {
	for _, c := range n.children {
		if c.Self != 0 || c.Calls != 0 {
			nrec++
			npath += depth
		}
		r, p := countRecords(c, depth+1)
		nrec, npath = nrec+r, npath+p
	}
	return nrec, npath
}

// flatten appends n's records to out, cutting each path from the front
// of paths, and returns out and what is left of paths.
func flatten(n *Node, depth int, out []FlatRecord, paths []string) ([]FlatRecord, []string) {
	for _, c := range n.children {
		if c.Self != 0 || c.Calls != 0 {
			p := paths[:depth:depth]
			paths = paths[depth:]
			for i, a := depth-1, c; i >= 0; i, a = i-1, a.parent {
				p[i] = a.Frame
			}
			out = append(out, FlatRecord{Path: p, Self: c.Self, Calls: c.Calls})
		}
		out, paths = flatten(c, depth+1, out, paths)
	}
	return out, paths
}

// SortedRecords returns recs in Flatten's order: strictly increasing
// paths, none of them empty. A list already in that order, as every
// Flatten output is, is returned as it is. Any other list (a
// hand-edited or foreign dump) is copied and sorted, with the records
// of one path summed into one and those of the empty path (the root)
// dropped, as a tree built from the list would hold them.
func SortedRecords(recs []FlatRecord) []FlatRecord {
	sorted := len(recs) == 0 || len(recs[0].Path) > 0
	for i := 1; sorted && i < len(recs); i++ {
		sorted = slices.Compare(recs[i-1].Path, recs[i].Path) < 0
	}
	if sorted {
		return recs
	}
	out := slices.DeleteFunc(slices.Clone(recs), func(r FlatRecord) bool { return len(r.Path) == 0 })
	slices.SortFunc(out, func(x, y FlatRecord) int { return slices.Compare(x.Path, y.Path) })
	n := 0
	for _, r := range out {
		if n > 0 && slices.Equal(out[n-1].Path, r.Path) {
			out[n-1].Self += r.Self
			out[n-1].Calls += r.Calls
			continue
		}
		out[n] = r
		n++
	}
	return out[:n]
}
