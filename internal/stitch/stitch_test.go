package stitch

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"whodunit/internal/cct"
	"whodunit/internal/ipc"
	"whodunit/internal/profiler"
	"whodunit/internal/vclock"
)

// buildTwoTier runs the Figure 6/7 caller/callee scenario and returns the
// two stage dumps.
func buildTwoTier(t *testing.T) []StageDump {
	t.Helper()
	s := vclock.New()
	cpu := s.NewCPU("cpu", 2)
	callerProf := profiler.New("caller", profiler.ModeWhodunit)
	calleeProf := profiler.New("callee", profiler.ModeWhodunit)
	callerEP, calleeEP := ipc.NewEndpoint("caller"), ipc.NewEndpoint("callee")
	reqQ, respQ := s.NewQueue("req"), s.NewQueue("resp")

	s.Go("callee", func(th *vclock.Thread) {
		pr := calleeProf.NewProbe(th, cpu)
		for i := 0; i < 2; i++ {
			msg := th.Get(reqQ).(ipc.Msg)
			calleeEP.Recv(pr, msg)
			func() {
				defer pr.Exit(pr.Enter("callee_rpc_svc"))
				pr.Compute(5 * profiler.DefaultInterval)
				respQ.Put(calleeEP.Send(pr, nil))
			}()
		}
	})
	s.Go("caller", func(th *vclock.Thread) {
		pr := callerProf.NewProbe(th, cpu)
		for _, path := range []string{"foo", "bar"} {
			func() {
				defer pr.Exit(pr.Enter("main_caller"))
				defer pr.Exit(pr.Enter(path))
				pr.Compute(2 * profiler.DefaultInterval)
				reqQ.Put(callerEP.Send(pr, nil))
				callerEP.Recv(pr, th.Get(respQ).(ipc.Msg))
			}()
		}
	})
	s.Run()
	s.Shutdown()
	return []StageDump{Dump(callerProf.View(), callerEP), Dump(calleeProf.View(), calleeEP)}
}

func TestBuildConnectsTiers(t *testing.T) {
	g := Build(buildTwoTier(t))
	// The callee should contribute two context nodes (foo path, bar path),
	// each connected by a request and response edge.
	var reqEdges, respEdges int
	for _, e := range g.Edges {
		switch e.Kind {
		case "request":
			reqEdges++
		case "response":
			respEdges++
		}
	}
	if reqEdges != 2 || respEdges != 2 {
		t.Fatalf("edges: %d requests, %d responses, want 2/2 (graph: %+v)", reqEdges, respEdges, g.Edges)
	}
	// Request edges must cross stages.
	for _, e := range g.Edges {
		if g.Nodes[e.From].Stage == g.Nodes[e.To].Stage {
			t.Fatalf("edge within one stage: %+v", e)
		}
	}
}

func TestCalleeTreesDuplicatedPerContext(t *testing.T) {
	// Figure 7: the callee's call-path tree appears once per caller
	// context. A node's CCT is its TreeDump: nodes follow the dumps'
	// trees in order.
	dumps := buildTwoTier(t)
	g := Build(dumps)
	var trees []TreeDump
	for _, d := range dumps {
		trees = append(trees, d.Trees...)
	}
	calleeNodes := 0
	for i, n := range g.Nodes {
		if n.Stage != "callee" || n.Total == 0 {
			continue
		}
		calleeNodes++
		td := trees[i]
		if td.Label != n.Label || td.Total != n.Total {
			t.Fatalf("node %d %+v is not its tree %q (total %d)", i, n, td.Label, td.Total)
		}
		if !slices.ContainsFunc(td.Records, func(r cct.FlatRecord) bool { return r.Path[0] == "callee_rpc_svc" }) {
			t.Fatalf("callee node %d's tree has no svc frame: %+v", i, td.Records)
		}
	}
	if calleeNodes != 2 {
		t.Fatalf("callee context nodes = %d, want 2", calleeNodes)
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	dumps := buildTwoTier(t)
	var buf bytes.Buffer
	if err := dumps[1].Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stage != "callee" || len(back.Trees) != len(dumps[1].Trees) {
		t.Fatalf("round trip: %+v", back)
	}
	// Graph built from decoded dumps must match.
	g := Build([]StageDump{dumps[0], back})
	if len(g.Edges) != 4 {
		t.Fatalf("edges after round trip = %d", len(g.Edges))
	}
}

func TestRenderAndDOT(t *testing.T) {
	g := Build(buildTwoTier(t))
	var txt, dot bytes.Buffer
	g.Render(&txt)
	g.DOT(&dot)
	if !strings.Contains(txt.String(), "request") {
		t.Fatalf("render: %s", txt.String())
	}
	out := dot.String()
	if !strings.HasPrefix(out, "digraph whodunit {") || !strings.Contains(out, "style=dashed") {
		t.Fatalf("dot: %s", out)
	}
}

func TestDecodeBadJSON(t *testing.T) {
	if _, err := DecodeDump(strings.NewReader("{nope")); err == nil {
		t.Fatal("bad JSON should fail")
	}
}

func TestBuildPartialSeversLostSends(t *testing.T) {
	dumps := buildTwoTier(t)
	// Lose the callee tier entirely, as a crashed stage whose dump never
	// landed. The caller's sends now match nothing; a partial build must
	// surface them as severed edges instead of dropping them.
	partial := BuildPartial(dumps[:1], []string{"callee"})
	if len(partial.Missing) != 1 || partial.Missing[0] != "callee" {
		t.Fatalf("Missing = %v, want [callee]", partial.Missing)
	}
	var sink = -1
	for i, n := range partial.Nodes {
		if n.Stage == "(missing)" {
			sink = i
			if !strings.Contains(n.Label, "callee") {
				t.Errorf("sink label %q does not name the missing stage", n.Label)
			}
		}
	}
	if sink < 0 {
		t.Fatal("no (missing) sink node in the partial graph")
	}
	severed := 0
	for _, e := range partial.Edges {
		if e.Kind == "severed" {
			severed++
			if e.To != sink {
				t.Errorf("severed edge points at node %d, not the sink %d", e.To, sink)
			}
		}
	}
	if severed == 0 {
		t.Fatal("no severed edges for the caller's unmatched sends")
	}
	// A complete profile must never sever: the same dumps with no
	// declared-missing stages build exactly as before.
	full := BuildPartial(dumps, nil)
	for _, e := range full.Edges {
		if e.Kind == "severed" {
			t.Fatal("complete profile grew a severed edge")
		}
	}
	for _, n := range full.Nodes {
		if n.Stage == "(missing)" {
			t.Fatal("complete profile grew a (missing) node")
		}
	}
	var buf bytes.Buffer
	partial.Render(&buf)
	if !strings.Contains(buf.String(), "missing stages: callee") {
		t.Errorf("Render does not announce the missing stage:\n%s", buf.String())
	}
	buf.Reset()
	partial.DOT(&buf)
	if !strings.Contains(buf.String(), "style=dotted") {
		t.Errorf("DOT does not dot the severed edges:\n%s", buf.String())
	}
}
