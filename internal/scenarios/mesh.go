package scenarios

import (
	"fmt"
	"log"
	"os"

	"whodunit"
	"whodunit/internal/apps/meshkv"
	"whodunit/internal/trace"
)

// Mesh scenarios: the microservice-mesh app model (internal/apps/meshkv)
// driven by deterministic generated traces (internal/trace). The trace
// seed and the app seed both derive from the scenario seed, so the whole
// pipeline — generation, ring routing, cache behavior, scheduling,
// stitching — is a pure function of Params.

// meshReplay is what a trace-replay mesh scenario is: the trace shape
// its generator draws and the topology that replays it (deep selects
// the 7-tier proxy-chain topology).
type meshReplay struct {
	name string
	gen  trace.GenConfig
	deep bool
}

func (m *meshReplay) generate(seed uint64) *trace.Trace {
	gen := m.gen
	gen.Seed = seed
	return trace.Gen(gen)
}

func (m *meshReplay) replay(p Params, tr *trace.Trace) *whodunit.Report {
	cfg := meshkv.DefaultConfig(tr)
	cfg.Name = m.name
	cfg.Mode = p.Mode
	cfg.Seed = p.Seed
	cfg.Deep = m.deep
	return meshkv.Run(cfg).Report
}

// meshScenario builds one mesh corpus entry, replaying the trace gen
// draws at the run's seed.
func meshScenario(name, about string, defaults Params, gen trace.GenConfig, deep bool) Scenario {
	m := &meshReplay{name: name, gen: gen, deep: deep}
	return Scenario{
		Name: name, About: about, Defaults: defaults, mesh: m,
		Make: func(p Params) *whodunit.Report { return m.replay(p, m.generate(p.Seed)) },
	}
}

// trace is the trace a spec naming a file replays: the generated one,
// recorded at WriteTrace first, or what a salvaging read of Trace keeps.
func (m *meshReplay) trace(p Params, warn *log.Logger) (*trace.Trace, error) {
	if p.WriteTrace != "" {
		f, err := os.Create(p.WriteTrace)
		if err != nil {
			return nil, err
		}
		tr := m.generate(p.Seed)
		err = trace.Write(f, tr)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return tr, err
	}
	f, err := os.Open(p.Trace)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	switch {
	case err != nil:
		return nil, fmt.Errorf("%s: %w", p.Trace, err)
	case len(tr.Events) == 0:
		return nil, fmt.Errorf("%s: no replayable events", p.Trace)
	case tr.Lost > 0:
		warn.Printf("%s: salvaged %d events (%d lost)", p.Trace, len(tr.Events), tr.Lost)
	}
	return tr, nil
}

func meshSteadyTrace() trace.GenConfig {
	g := trace.CacheTrace()
	g.Events = 1500
	return g
}

func meshHotKeyTrace() trace.GenConfig {
	g := meshSteadyTrace()
	g.HotKeys = 3
	g.HotFrac = 0.6
	return g
}

func meshDeepTrace() trace.GenConfig {
	g := trace.MetaKV()
	g.Events = 1000
	return g
}

// serveMeshApp builds the open-loop mesh: the standard 4-shard topology
// fed by an endless cache-trace arrival stream. Every run attempt is the
// same app.
func serveMeshApp(p Params, _ int) *whodunit.App {
	cfg := meshkv.DefaultConfig(nil)
	cfg.Name = "serve-mesh"
	cfg.Mode = p.Mode
	cfg.Seed = p.Seed
	gen := trace.CacheTrace()
	gen.Seed = p.Seed
	return meshkv.Serve(cfg, gen)
}
