package stitch

// The differential oracle for the stitched graph: refBuildPartial is
// BuildPartial as it was when it keyed nodes by stage and context key
// joined with "\x00" and kept a stage per node beside the graph.
// (It also rebuilt a private CCT per node from the dump's records; no
// reader compared that copy, and a node no longer carries one.)
// TestQuickBuildPartialMatchesRef demands the same nodes, edges and
// missing list on generated dumps.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"whodunit/internal/ipc"
)

func refBuildPartial(dumps []StageDump, missing []string) *Graph {
	g := &Graph{}
	if len(missing) > 0 {
		g.Missing = append([]string(nil), missing...)
		sort.Strings(g.Missing)
	}
	byStageKey := make(map[string]int)
	byPrefix := make(map[string][]int)
	stageOf := make([]string, 0)
	for _, d := range dumps {
		for _, td := range d.Trees {
			idx := len(g.Nodes)
			g.Nodes = append(g.Nodes, Node{Stage: d.Stage, Label: td.Label, Total: td.Total})
			byStageKey[d.Stage+"\x00"+td.Key] = idx
			byPrefix[td.Prefix] = append(byPrefix[td.Prefix], idx)
			stageOf = append(stageOf, d.Stage)
		}
	}
	severed := make(map[int]bool)
	for _, d := range dumps {
		for _, send := range d.Sends {
			from, ok := byStageKey[d.Stage+"\x00"+send.FromKey]
			if !ok {
				continue
			}
			matched := false
			for _, to := range byPrefix[send.Chain] {
				if stageOf[to] == d.Stage {
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

// genDumps draws stage dumps from small name pools, so that prefixes
// repeat within and across stages, a stage name or a context key can
// repeat, and sends name chains no tree has and keys no tree has. Stage
// names come from the same pool as the declared-missing ones, so a stage
// can be both dumped and declared missing. A name may hold "|" (as a
// context key does) but never a NUL byte: the oracle's joined keys are
// injective only then.
func genDumps(rng *rand.Rand) (dumps []StageDump, missing []string) {
	name := func(kind string, n int) string { return fmt.Sprintf("%s%d", kind, rng.Intn(n)) }
	for range rng.Intn(5) {
		d := StageDump{Stage: name("s", 4)}
		for range rng.Intn(5) {
			key := name("p", 4) + "|" + name("l", 3)
			d.Trees = append(d.Trees, TreeDump{
				Key: key, Prefix: name("p", 4), Label: name("ctx", 5) + " " + key, Total: rng.Int63n(100),
			})
		}
		for range rng.Intn(6) {
			d.Sends = append(d.Sends, ipc.SendRecord{Chain: name("p", 6), FromKey: name("p", 5) + "|" + name("l", 3)})
		}
		dumps = append(dumps, d)
	}
	for range rng.Intn(3) {
		missing = append(missing, name("s", 6))
	}
	return dumps, missing
}

func TestQuickBuildPartialMatchesRef(t *testing.T) {
	var requests, severed int
	for seed := int64(0); seed < 2000; seed++ {
		dumps, missing := genDumps(rand.New(rand.NewSource(seed)))
		got, want := BuildPartial(dumps, missing), refBuildPartial(dumps, missing)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: BuildPartial = %+v\noracle %+v", seed, got, want)
		}
		for _, e := range got.Edges {
			switch e.Kind {
			case "request":
				requests++
			case "severed":
				severed++
			}
		}
	}
	// The generator must reach both kinds of cross-stage edge.
	if requests == 0 || severed == 0 {
		t.Fatalf("generated %d request and %d severed edges; want both", requests, severed)
	}
}
