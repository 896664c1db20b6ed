// Package cct implements Calling Context Trees (Ammons/Ball/Larus), the
// data structure Whodunit's call-path profiler core keeps per transaction
// context (§7.1). Each tree accumulates statistical profile samples (and
// call counts, for the gprof-style baseline) along call paths; the root of
// each tree is annotated with the transaction context it profiles.
//
// Frame names are interned: a FrameTable maps each procedure name to a
// small integer FrameID once, and the hot paths (AddSamplesIDs,
// AddCallIDs) walk ID slices without touching a string. A profiler
// shares one table across all its trees, so a probe's interned stack is
// valid in whichever context tree a sample lands. A tree is one node
// array: the root is index 0, a node comes after its parent, and a
// node's children are indexes in frame-name order. So Flatten and
// CloneShared read the children as they are, one backward pass sums
// inclusive counts, and Flatten's records are in path order, the tree's
// preorder, which lets a report diff merge two dumps' lists without
// rebuilding a tree. Only Render, whose order is by inclusive count,
// sorts (a copy).
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

// Len reports the number of interned frames.
func (ft *FrameTable) Len() int { return len(ft.names) }

// node is one procedure frame of a tree. A lookup scans kids by FrameID,
// so a fan-out of k costs a k-long scan; calls counts invocations in the
// instrumented (gprof-like) mode.
type node struct {
	id          FrameID
	parent      int32
	kids        []int32
	self, calls int64
}

// Tree is a calling context tree. Label carries the transaction-context
// annotation (a rendered context or synopsis chain).
type Tree struct {
	Label string
	total int64
	ft    *FrameTable
	nodes []node  // nodes[0] is the root; a node comes after its parent
	first [4]node // nodes' array until a fifth node is added
}

// New returns an empty tree annotated with label, owning a private frame
// table.
func New(label string) *Tree { return NewShared(label, NewFrameTable()) }

// NewShared returns an empty tree annotated with label whose frames are
// interned in ft, so trees sharing ft can exchange FrameIDs directly.
func NewShared(label string, ft *FrameTable) *Tree {
	// Room for four nodes inside the tree, so a new tree is one
	// allocation: on the serve benchmark, retired windows allocate least
	// at that start without allocating more bytes.
	t := &Tree{Label: label, ft: ft}
	t.nodes = t.first[:1]
	return t
}

// Reset empties the tree to its root and labels it label, keeping its
// node array: the nodes it adds next take the old nodes' places and
// their child lists' storage, so a tree refilled to its old shape
// allocates nothing. It is how a profiler reuses a retired window's
// tree (Profiler.Recycle); nothing may still read the tree's old
// content.
func (t *Tree) Reset(label string) {
	t.Label, t.total = label, 0
	t.nodes = t.nodes[:1]
	t.nodes[0] = node{kids: t.nodes[0].kids[:0]}
}

// Frames returns the tree's frame table.
func (t *Tree) Frames() *FrameTable { return t.ft }

// Total reports the total number of samples in the tree.
func (t *Tree) Total() int64 { return t.total }

// AddSamplesIDs attributes n samples to the leaf of an interned call
// path — the profiler's per-sample hot path. It performs no string work
// and, once the path's nodes exist, no allocation.
func (t *Tree) AddSamplesIDs(ids []FrameID, n int64) {
	t.nodes[t.path(0, ids)].self += n
	t.total += n
}

// AddCallIDs counts one invocation of the leaf of an interned call path
// (instrumented mode).
func (t *Tree) AddCallIDs(ids []FrameID) { t.nodes[t.path(0, ids)].calls++ }

// path returns the node at ids below node i, adding the nodes it lacks.
func (t *Tree) path(i int32, ids []FrameID) int32 {
	nodes := t.nodes
next:
	for k, id := range ids {
		for _, c := range nodes[i].kids {
			if nodes[c].id == id {
				i = c
				continue next
			}
		}
		for _, id := range ids[k:] {
			i = t.add(i, id)
		}
		break
	}
	return i
}

// add appends a child of node i for frame id, which i lacks, and
// inserts it among i's children at its name's place. A node array kept
// by Reset still holds the old nodes past its length: the child takes
// the place, and the child list's storage, of the one there.
func (t *Tree) add(i int32, id FrameID) int32 {
	c := int32(len(t.nodes))
	if int(c) < cap(t.nodes) {
		t.nodes = t.nodes[:c+1]
		t.nodes[c] = node{id: id, parent: i, kids: t.nodes[c].kids[:0]}
	} else {
		t.nodes = append(t.nodes, node{id: id, parent: i})
	}
	p := &t.nodes[i]
	k, _ := slices.BinarySearchFunc(p.kids, t.ft.names[id], func(e int32, name string) int {
		return strings.Compare(t.ft.names[t.nodes[e].id], name)
	})
	p.kids = slices.Insert(p.kids, k, c)
	return c
}

// inclusive returns every node's inclusive sample count (itself plus
// all descendants), by index: a child comes after its parent, so one
// backward pass adds each node's sum into its parent's.
func (t *Tree) inclusive() []int64 {
	inc := make([]int64, len(t.nodes))
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if inc[i] += t.nodes[i].self; i > 0 {
			inc[t.nodes[i].parent] += inc[i]
		}
	}
	return inc
}

// Counts are one node's sample and call counts; Inclusive adds the
// samples of all its descendants to Self.
type Counts struct{ Self, Calls, Inclusive int64 }

// Find returns the counts of the node at path without creating it, and
// whether it exists. An empty path is the root.
func (t *Tree) Find(path ...string) (Counts, bool) {
	var i int32
next:
	for _, f := range path {
		id, ok := t.ft.ids[f]
		for _, c := range t.nodes[i].kids {
			if ok && t.nodes[c].id == id {
				i = c
				continue next
			}
		}
		return Counts{}, false
	}
	n := &t.nodes[i]
	return Counts{n.self, n.calls, t.inclusive()[i]}, true
}

// Merge adds every sample and call count of src into t. The trees need
// not share a frame table: frames are matched by name.
func (t *Tree) Merge(src *Tree) {
	at := make([]int32, len(src.nodes)) // src index → t index
	for j, s := range src.nodes {
		if j > 0 {
			at[j] = t.path(at[s.parent], []FrameID{t.ft.ID(src.ft.names[s.id])})
		}
		t.nodes[at[j]].self += s.self
		t.nodes[at[j]].calls += s.calls
	}
	t.total += src.total
}

// CloneShared returns a deep copy of t whose frames are interned in ft —
// the detach step of a profiler snapshot. The copy shares nothing mutable
// with t (frame-name strings are immutable), so it can be read from any
// goroutine while further samples accumulate into t. It copies the node
// array and all child lists, and interns frames in preorder.
func (t *Tree) CloneShared(ft *FrameTable) *Tree {
	out := &Tree{Label: t.Label, total: t.total, ft: ft}
	out.nodes = append(out.first[:0], t.nodes...)
	kids := make([]int32, 0, len(t.nodes)-1)
	for i := range out.nodes {
		n := &out.nodes[i]
		kids = append(kids, n.kids...)
		n.kids = kids[len(kids)-len(n.kids) : len(kids) : len(kids)]
	}
	out.intern(t.ft, 0)
	return out
}

// intern re-interns, in preorder, the frames below node i, which are
// still ids of from.
func (t *Tree) intern(from *FrameTable, i int32) {
	for _, c := range t.nodes[i].kids {
		t.nodes[c].id = t.ft.ID(from.names[t.nodes[c].id])
		t.intern(from, c)
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
	inc := t.inclusive()
	var rec func(i int32, indent int)
	rec = func(i int32, indent int) {
		kids := slices.Clone(t.nodes[i].kids)
		sort.SliceStable(kids, func(a, b int) bool { return inc[kids[a]] > inc[kids[b]] })
		for _, c := range kids {
			n, frame := &t.nodes[c], t.ft.names[t.nodes[c].id]
			pad := strings.Repeat("  ", indent)
			if denom <= 0 {
				fmt.Fprintf(w, "%s%s (self %d, calls %d)\n", pad, frame, n.self, n.calls)
			} else if pct := 100 * float64(inc[c]) / float64(denom); pct >= minPct {
				fmt.Fprintf(w, "%s%-*s %6.2f%%  (self %d, incl %d)\n", pad, 40-2*indent, frame, pct, n.self, inc[c])
			} else {
				continue
			}
			rec(c, indent+1)
		}
	}
	rec(0, 0)
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
	nrec, npath := t.FlatSize()
	if nrec == 0 {
		return nil
	}
	out, _ := t.AppendFlat(make([]FlatRecord, 0, nrec), make([]string, 0, npath))
	return out
}

// FlatSize reports how many records Flatten returns and how many path
// elements they hold together, so that the arrays of several trees'
// records can be sized at once.
func (t *Tree) FlatSize() (records, pathElems int) {
	for i := 1; i < len(t.nodes); i++ {
		if n := &t.nodes[i]; n.self != 0 || n.calls != 0 {
			records++
			for j := int32(i); j != 0; j = t.nodes[j].parent {
				pathElems++
			}
		}
	}
	return records, pathElems
}

// AppendFlat appends Flatten's records to recs and their paths to paths,
// each path a window of paths capped at its own length, and returns both
// arrays. With the capacity FlatSize asks for it allocates nothing.
func (t *Tree) AppendFlat(recs []FlatRecord, paths []string) ([]FlatRecord, []string) {
	return t.appendFlat(0, 1, recs, paths)
}

// appendFlat is AppendFlat for the nodes below node i, whose children
// sit at depth depth.
func (t *Tree) appendFlat(i int32, depth int, recs []FlatRecord, paths []string) ([]FlatRecord, []string) {
	for _, c := range t.nodes[i].kids {
		if n := &t.nodes[c]; n.self != 0 || n.calls != 0 {
			at := len(paths)
			paths = slices.Grow(paths, depth)[:at+depth]
			p := paths[at : at+depth : at+depth]
			for k, a := depth-1, c; k >= 0; k, a = k-1, t.nodes[a].parent {
				p[k] = t.ft.names[t.nodes[a].id]
			}
			recs = append(recs, FlatRecord{Path: p, Self: n.self, Calls: n.calls})
		}
		recs, paths = t.appendFlat(c, depth+1, recs, paths)
	}
	return recs, paths
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
