// Package stitch performs Whodunit's post-mortem presentation phase
// (§7.1, Figure 7): it takes the per-stage profiles written at the end of
// each stage's run and stitches them into one global transaction graph,
// connecting the context a request was sent from in one stage to the CCT
// it established in the next, with request edges (and the implied
// response edges back).
package stitch

import (
	"encoding/json"
	"fmt"
	"io"
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
func Dump(s *profiler.Snapshot, eps ...*ipc.Endpoint) StageDump {
	entries := s.Entries()
	d := StageDump{Stage: s.Stage}
	if len(entries) > 0 {
		d.Trees = make([]TreeDump, 0, len(entries)) // nil when empty: it encodes as null
	}
	for _, e := range entries {
		d.Trees = append(d.Trees, TreeDump{
			Key:     e.Key,
			Prefix:  e.Prefix,
			Label:   e.Tree.Label,
			Total:   e.Tree.Total(),
			Records: e.Tree.Flatten(),
		})
	}
	for _, ep := range eps {
		d.Sends = append(d.Sends, ep.Sends()...)
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
	// Index nodes by (stage, context key), and receiver candidates by
	// prefix chain, in one pass. The per-send matching below is then a
	// single map lookup instead of the previous O(sends × stages × trees)
	// rescan of every dump. Candidate lists keep dump/tree order, so the
	// emitted edge set is identical.
	type stageKey struct{ stage, key string }
	byStageKey := make(map[stageKey]int)
	byPrefix := make(map[string][]int)
	for _, d := range dumps {
		for _, td := range d.Trees {
			idx := len(g.Nodes)
			g.Nodes = append(g.Nodes, Node{Stage: d.Stage, Label: td.Label, Total: td.Total})
			byStageKey[stageKey{d.Stage, td.Key}] = idx
			byPrefix[td.Prefix] = append(byPrefix[td.Prefix], idx)
		}
	}
	// Request edges: sender context --chain--> receiver tree whose prefix
	// equals the sent chain (in another stage).
	severed := make(map[int]bool) // sender nodes with at least one lost send
	for _, d := range dumps {
		for _, send := range d.Sends {
			from, ok := byStageKey[stageKey{d.Stage, send.FromKey}]
			if !ok {
				continue
			}
			matched := false
			for _, to := range byPrefix[send.Chain] {
				if g.Nodes[to].Stage == d.Stage {
					continue
				}
				matched = true
				g.Edges = append(g.Edges, Edge{From: from, To: to, Kind: "request"})
				g.Edges = append(g.Edges, Edge{From: to, To: from, Kind: "response"})
			}
			if !matched && len(g.Missing) > 0 {
				severed[from] = true
			}
		}
	}
	if len(severed) > 0 {
		sink := len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{
			Stage: "(missing)",
			Label: "lost to: " + strings.Join(g.Missing, ", "),
		})
		for from := range severed {
			g.Edges = append(g.Edges, Edge{From: from, To: sink, Kind: "severed"})
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Kind < b.Kind
	})
	return g
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
