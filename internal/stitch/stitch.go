// Package stitch performs Whodunit's post-mortem presentation phase
// (§7.1, Figure 7): it takes the per-stage profiles written at the end of
// each stage's run and stitches them into one global transaction graph,
// connecting the context a request was sent from in one stage to the CCT
// it established in the next, with request edges (and the implied
// response edges back).
package stitch

import (
	"cmp"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"sort"
	"strings"

	"whodunit/internal/cct"
	"whodunit/internal/ipc"
	"whodunit/internal/profiler"
)

// TreeDump is one serialized CCT with its transaction-context annotation.
type TreeDump struct {
	Key     string           `json:"key"`     // TxnCtxt key (prefix|local)
	Prefix  string           `json:"prefix"`  // rendered synopsis chain
	Label   string           `json:"label"`   // human-readable context
	Total   int64            `json:"total"`   // samples in the tree
	Records []cct.FlatRecord `json:"records"` // flattened tree
}

// StageDump is the on-disk profile of one stage: its CCTs plus the chains
// it sent (with originating contexts), i.e. everything the presentation
// phase needs.
type StageDump struct {
	Stage string           `json:"stage"`
	Trees []TreeDump       `json:"trees"`
	Sends []ipc.SendRecord `json:"sends"`
	// Lost counts dump records that could not be salvaged when the dump
	// was read back from a truncated or corrupt stream (ReadDumpStream);
	// the rest of the dump is the complete prefix that survived.
	Lost int `json:"lost,omitempty"`
}

// Dump captures a stage's profile (and optionally its endpoints) into a
// serializable StageDump: a running profiler's (or a served window in
// progress) through Profiler.View, a retired window's through
// Profiler.Retire.
//
// The dump allocates two arrays for the whole stage, whatever its tree
// count: every tree's records go into one exactly sized record array,
// each TreeDump.Records a window of it capped at its own length, and
// their paths into one path array. A stage with one endpoint shares the
// endpoint's send log (Endpoint.Sends), which later sends never change.
func Dump(s *profiler.Snapshot, eps ...*ipc.Endpoint) StageDump {
	entries := s.Entries()
	d := StageDump{Stage: s.Stage}
	if len(eps) > 0 {
		// Capped: appending the other endpoints' sends copies the first's.
		d.Sends = eps[0].Sends()
		for _, ep := range eps[1:] {
			d.Sends = append(d.Sends, ep.Sends()...)
		}
	}
	if len(entries) == 0 {
		return d // no trees: nil, which encodes as null
	}
	nrec, npath := 0, 0
	for _, e := range entries {
		r, p := e.Tree.FlatSize()
		nrec, npath = nrec+r, npath+p
	}
	recs, paths := make([]cct.FlatRecord, 0, nrec), make([]string, 0, npath)
	d.Trees = make([]TreeDump, len(entries))
	for i, e := range entries {
		at := len(recs)
		recs, paths = e.Tree.AppendFlat(recs, paths)
		td := TreeDump{Key: e.Key, Prefix: e.Prefix, Label: e.Tree.Label, Total: e.Tree.Total()}
		if len(recs) > at {
			td.Records = recs[at:len(recs):len(recs)] // nil when empty, as Flatten's
		}
		d.Trees[i] = td
	}
	return d
}

// Encode writes the dump as JSON.
func (d StageDump) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DecodeDump reads a StageDump from JSON.
func DecodeDump(r io.Reader) (StageDump, error) {
	var d StageDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return StageDump{}, fmt.Errorf("stitch: decode dump: %w", err)
	}
	return d, nil
}

// Node is one (stage, transaction context) profile in the stitched graph.
// Its CCT is the TreeDump it was built from, in its stage's dump: the
// graph indexes the dumps, it does not copy their trees.
type Node struct {
	Stage string
	Label string
	Total int64
}

// Edge connects the context a message was sent from to the context it
// established (request), or back (response).
type Edge struct {
	From, To int // node indices
	Kind     string
}

// Graph is the stitched end-to-end transactional profile.
type Graph struct {
	// Nodes are the dumps' trees in order, one per TreeDump, then the
	// "(missing)" sink if the graph has one.
	Nodes []Node
	Edges []Edge
	// Missing names stages declared absent when the graph was built
	// partially (BuildPartial): a crashed tier whose dump never landed.
	// Sends that found no receiver are then represented by severed edges
	// to a synthetic "(missing)" node instead of being dropped.
	Missing []string
}

// Build stitches per-stage dumps into the global graph. Trees are matched
// by synopsis chain: stage B's tree with prefix P connects to the stage A
// context that sent chain P. Sends with no matching receiver are simply
// omitted — in a complete profile those are response sends back to a
// context the stitcher already connected, not evidence of loss.
func Build(dumps []StageDump) *Graph { return BuildPartial(dumps, nil) }

// BuildPartial is Build for profiles known to be incomplete: missing
// names the stages whose dumps are absent (a crashed tier, a dump file
// lost in collection). When missing is non-empty, each sender context
// whose sends matched no receiver gets one "severed" edge to a synthetic
// "(missing)" node, so the partial graph shows where transactions left
// the observed world instead of silently ending. With an empty missing
// list it is exactly Build — unmatched response sends in a complete
// profile are expected and must not be severed.
func BuildPartial(dumps []StageDump, missing []string) *Graph {
	g := &Graph{}
	if len(missing) > 0 {
		g.Missing = append([]string(nil), missing...)
		sort.Strings(g.Missing)
	}
	n := 0
	for _, d := range dumps {
		n += len(d.Trees)
	}
	if n == 0 {
		return g // no sender and no receiver: no node, no edge, no sink
	}
	g.Nodes = make([]Node, 0, n+min(len(g.Missing), 1)) // room for the "(missing)" sink
	// Index the nodes twice, as arrays sorted by hash: byKey by the hash
	// of (stage, context key), where a send finds its sender, and
	// byPrefix by the hash of the prefix chain, where it finds its
	// receivers. Equal hashes sort by node, and a match is confirmed on
	// the strings, so receivers come in node order and a repeated
	// (stage, key) names its last node. For up to 64 trees the indexes,
	// and the trees they confirm against, stay on the stack.
	var treeBuf [64]*TreeDump
	var ixBuf [2 * len(treeBuf)]hashed
	trees, ix := treeBuf[:0], ixBuf[:0]
	if n > len(treeBuf) {
		trees, ix = make([]*TreeDump, 0, n), make([]hashed, 0, 2*n)
	}
	for _, d := range dumps {
		h := maphash.String(hashSeed, d.Stage)
		for j := range d.Trees {
			td := &d.Trees[j]
			ix = append(ix, hashed{keyHash(h, td.Key), int32(len(g.Nodes))})
			trees = append(trees, td)
			g.Nodes = append(g.Nodes, Node{Stage: d.Stage, Label: td.Label, Total: td.Total})
		}
	}
	for i, td := range trees {
		ix = append(ix, hashed{maphash.String(hashSeed, td.Prefix), int32(i)})
	}
	byKey, byPrefix := ix[:n], ix[n:]
	slices.SortFunc(byKey, hashed.compare)
	slices.SortFunc(byPrefix, hashed.compare)
	// link calls f(from, to) for each request edge of a send from stage,
	// whose hash is h: from the sender context to each receiver tree, in
	// another stage, whose prefix is the sent chain. It reports the
	// sender and whether the send had one and matched a receiver.
	link := func(stage string, h uint64, send ipc.SendRecord, f func(from, to int)) (from int, sent, matched bool) {
		for _, e := range hashRun(byKey, keyHash(h, send.FromKey)) {
			if g.Nodes[e.node].Stage == stage && trees[e.node].Key == send.FromKey {
				from, sent = int(e.node), true
			}
		}
		if !sent {
			return 0, false, false
		}
		for _, e := range hashRun(byPrefix, maphash.String(hashSeed, send.Chain)) {
			if to := int(e.node); trees[to].Prefix == send.Chain && g.Nodes[to].Stage != stage {
				matched = true
				f(from, to)
			}
		}
		return from, true, matched
	}
	// Each request edge comes with its response edge back. The first
	// pass counts them and marks the senders with a send that matched
	// nothing (lost to a missing stage), so the edge list is allocated
	// once.
	edges, severed := 0, 0
	var lost []bool
	if len(g.Missing) > 0 {
		lost = make([]bool, n)
	}
	for _, d := range dumps {
		h := maphash.String(hashSeed, d.Stage)
		for _, send := range d.Sends {
			from, sent, matched := link(d.Stage, h, send, func(int, int) { edges += 2 })
			if sent && !matched && lost != nil && !lost[from] {
				lost[from] = true
				severed++
			}
		}
	}
	if edges+severed == 0 {
		return g
	}
	g.Edges = make([]Edge, 0, edges+severed)
	for _, d := range dumps {
		h := maphash.String(hashSeed, d.Stage)
		for _, send := range d.Sends {
			link(d.Stage, h, send, func(from, to int) {
				g.Edges = append(g.Edges, Edge{From: from, To: to, Kind: "request"}, Edge{From: to, To: from, Kind: "response"})
			})
		}
	}
	if severed > 0 {
		sink := len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{
			Stage: "(missing)",
			Label: "lost to: " + strings.Join(g.Missing, ", "),
		})
		for from, l := range lost {
			if l {
				g.Edges = append(g.Edges, Edge{From: from, To: sink, Kind: "severed"})
			}
		}
	}
	slices.SortFunc(g.Edges, func(a, b Edge) int {
		// cmp.Or would compare the kinds of every pair; only a tie needs it.
		if c := cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To)); c != 0 {
			return c
		}
		return strings.Compare(a.Kind, b.Kind)
	})
	return g
}

// hashSeed keys the hashes BuildPartial sorts its indexes by. A hash
// only orders an index and every match is confirmed on the strings, so
// no graph depends on the seed.
var hashSeed = maphash.MakeSeed()

// hashed is one node in an index of BuildPartial: the hash of what the
// node is found by, and the node.
type hashed struct {
	h    uint64
	node int32
}

func (a hashed) compare(b hashed) int {
	return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.node, b.node))
}

// keyHash is the hash a sender is found by: its stage's hash and its
// context key.
func keyHash(stage uint64, key string) uint64 {
	return stage*31 + maphash.String(hashSeed, key)
}

// hashRun returns the entries of the sorted index ix whose hash is h, in
// node order.
func hashRun(ix []hashed, h uint64) []hashed {
	lo, hi := 0, len(ix)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ix[m].h < h {
			lo = m + 1
		} else {
			hi = m
		}
	}
	hi = lo
	for hi < len(ix) && ix[hi].h == h {
		hi++
	}
	return ix[lo:hi]
}

// Render writes a text form of the graph: nodes with totals and edges.
func (g *Graph) Render(w io.Writer) {
	if len(g.Missing) > 0 {
		fmt.Fprintf(w, "partial graph; missing stages: %s\n", strings.Join(g.Missing, ", "))
	}
	grand := int64(0)
	for _, n := range g.Nodes {
		grand += n.Total
	}
	for i, n := range g.Nodes {
		pct := 0.0
		if grand > 0 {
			pct = 100 * float64(n.Total) / float64(grand)
		}
		fmt.Fprintf(w, "node %d: [%s] %s  samples=%d (%.2f%%)\n", i, n.Stage, n.Label, n.Total, pct)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(w, "edge: %d -%s-> %d\n", e.From, e.Kind, e.To)
	}
}

// DOT renders the graph in Graphviz dot syntax; request edges solid,
// response edges dashed (as in Figure 7).
func (g *Graph) DOT(w io.Writer) {
	fmt.Fprintln(w, "digraph whodunit {")
	fmt.Fprintln(w, "  rankdir=LR;")
	for i, n := range g.Nodes {
		label := strings.ReplaceAll(fmt.Sprintf("%s\\n%s\\n%d samples", n.Stage, n.Label, n.Total), `"`, `'`)
		fmt.Fprintf(w, "  n%d [shape=box,label=\"%s\"];\n", i, label)
	}
	for _, e := range g.Edges {
		style := "solid"
		switch e.Kind {
		case "response":
			style = "dashed"
		case "severed":
			style = "dotted"
		}
		fmt.Fprintf(w, "  n%d -> n%d [style=%s,label=\"%s\"];\n", e.From, e.To, style, e.Kind)
	}
	fmt.Fprintln(w, "}")
}
