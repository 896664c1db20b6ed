package meshkv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"whodunit"
	"whodunit/internal/mesh"
	"whodunit/internal/trace"
)

func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.CacheTrace()
	cfg.Events = 400
	return trace.Gen(cfg)
}

func TestRunCompletesEveryEvent(t *testing.T) {
	tr := smallTrace(t)
	res := Run(DefaultConfig(tr))
	if res.Completed != int64(len(tr.Events)) {
		t.Fatalf("completed %d of %d events", res.Completed, len(tr.Events))
	}
	if res.Injected != res.Completed {
		t.Fatalf("injected %d but completed %d", res.Injected, res.Completed)
	}
	if got, want := res.Gets.Count+res.Sets.Count, res.Completed; got != want {
		t.Fatalf("op stats count %d, completed %d", got, want)
	}
	// A Zipfian read-heavy trace must produce both hits and misses.
	if res.Hits == 0 || res.Misses == 0 {
		t.Fatalf("degenerate cache behavior: %d hits, %d misses", res.Hits, res.Misses)
	}
	if hr := res.HitRate(); hr < 0.2 || hr > 0.99 {
		t.Fatalf("hit rate %.2f outside plausible band", hr)
	}
	if res.ThroughputRPS <= 0 {
		t.Fatalf("throughput %f", res.ThroughputRPS)
	}
	// Every shard should have seen traffic, spread by the ring.
	var total int64
	for i, n := range res.ShardLoad {
		if n == 0 {
			t.Errorf("shard kv-%d served no requests", i)
		}
		total += n
	}
	if total < res.Completed {
		t.Fatalf("shards served %d requests for %d completions", total, res.Completed)
	}
	// Sets cost a synchronous write-through; they must be slower.
	if res.Sets.Count > 0 && res.Sets.MeanLatency() <= res.Gets.MeanLatency() {
		t.Errorf("set latency %v not above get latency %v", res.Sets.MeanLatency(), res.Gets.MeanLatency())
	}
}

func TestRunStages(t *testing.T) {
	tr := smallTrace(t)
	cfg := DefaultConfig(tr)
	res := Run(cfg)
	stages := map[string]bool{}
	for _, sr := range res.Report.Stages {
		stages[sr.Stage] = true
	}
	for _, want := range []string{"frontend", "rpc-proxy", "kv-0", "kv-1", "kv-2", "kv-3", "db"} {
		if !stages[want] {
			t.Errorf("stage %s missing from the report", want)
		}
	}
	if len(res.Report.Missing) != 0 {
		t.Errorf("report lists missing stages: %v", res.Report.Missing)
	}
}

// TestDeepTopologyStitchesLongChains pins the tentpole depth property:
// the deep topology's transaction graph contains request-edge paths of
// at least 6 hops (frontend → edge-proxy → rpc-proxy → cache-proxy →
// kv-i → db-proxy → db) with no severed edges.
func TestDeepTopologyStitchesLongChains(t *testing.T) {
	cfg := DefaultConfig(smallTrace(t))
	cfg.Deep = true
	res := Run(cfg)
	g := res.Report.Graph
	if g == nil {
		t.Fatal("no stitched graph")
	}
	if len(g.Missing) != 0 {
		t.Fatalf("deep mesh stitched with missing stages: %v", g.Missing)
	}
	for _, n := range g.Nodes {
		if n.Stage == "(missing)" {
			t.Fatal("severed edges in a complete deep mesh graph")
		}
	}
	// Longest request-edge path from any frontend node, by DFS over the
	// DAG of request edges.
	out := make(map[int][]int)
	for _, e := range g.Edges {
		if e.Kind == "request" {
			out[e.From] = append(out[e.From], e.To)
		}
	}
	memo := make(map[int]int)
	var depth func(n int) int
	depth = func(n int) int {
		if d, ok := memo[n]; ok {
			return d
		}
		memo[n] = 0 // cycle guard; request edges form a DAG in practice
		best := 0
		for _, m := range out[n] {
			if d := depth(m) + 1; d > best {
				best = d
			}
		}
		memo[n] = best
		return best
	}
	maxDepth := 0
	for i, n := range g.Nodes {
		if n.Stage == "frontend" {
			if d := depth(i); d > maxDepth {
				maxDepth = d
			}
		}
	}
	if maxDepth < 6 {
		t.Fatalf("deepest stitched request chain is %d hops, want >= 6", maxDepth)
	}
}

// TestRunBitReproducible: the full replay pipeline — generation,
// routing, caching, scheduling, stitching — renders bit-identically
// across two runs at the same seed.
func TestRunBitReproducible(t *testing.T) {
	render := func() ([]byte, []byte) {
		res := Run(DefaultConfig(smallTrace(t)))
		var txt, js bytes.Buffer
		res.Report.Text(&txt)
		if err := res.Report.JSON(&js); err != nil {
			t.Fatal(err)
		}
		return txt.Bytes(), js.Bytes()
	}
	txtA, jsA := render()
	txtB, jsB := render()
	if !bytes.Equal(txtA, txtB) {
		t.Error("text renders differ across identical runs")
	}
	if !bytes.Equal(jsA, jsB) {
		t.Error("JSON renders differ across identical runs")
	}
}

func TestServeRunsOpenLoop(t *testing.T) {
	cfg := DefaultConfig(nil)
	gen := trace.CacheTrace()
	app := Serve(cfg, gen)
	rep := app.RunFor(2 * whodunit.Second)
	if rep == nil {
		t.Fatal("no report")
	}
	found := false
	for _, sr := range rep.Stages {
		if sr.Stage == "frontend" && sr.Samples > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("open-loop serve charged no frontend CPU in 2s")
	}
}

// TestBuildPanicsOnBadConfig: every out-of-range Config field is
// rejected where the run is built (and a missing trace where it is
// replayed), with a message naming the package and the field.
func TestBuildPanicsOnBadConfig(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Shards", func(c *Config) { c.Shards = 0 }},
		{"Replicas", func(c *Config) { c.Replicas = -1 }},
		{"Trace", func(c *Config) { c.Trace = nil }},
	} {
		cfg := DefaultConfig(smallTrace(t))
		tc.mutate(&cfg)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "meshkv: ") || !strings.Contains(msg, tc.field) {
					t.Errorf("bad %s: Run panicked with %q, want a meshkv: message naming it", tc.field, msg)
				}
			}()
			Run(cfg)
			t.Errorf("bad %s: Run did not panic", tc.field)
		}()
	}
}

// TestRecycledEnvelopeCarriesNothingOver: an envelope from the free
// list is the previous request's, so inject must rewrite every field the
// mesh's Inject does not: the trace event's four and the response size.
func TestRecycledEnvelopeCarriesNothingOver(t *testing.T) {
	sys := build(DefaultConfig(nil))
	dirty := &mesh.Request{Op: "set", Key: "stale", Size: 9, Stream: 7, RespSize: 4096, Start: 5}
	sys.free = append(sys.free, dirty)
	var got *mesh.Request
	sys.pods[0].inject = func(req *mesh.Request) { got = req }
	ev := trace.Event{Op: "get", Key: "k1", Size: 3, Stream: 2}
	sys.inject(ev)
	if got != dirty {
		t.Fatalf("inject did not reuse the free envelope")
	}
	if got.Op != ev.Op || got.Key != ev.Key || got.Size != ev.Size || got.Stream != ev.Stream || got.RespSize != 0 {
		t.Fatalf("recycled envelope %+v, want %+v with RespSize 0", *got, ev)
	}
}
