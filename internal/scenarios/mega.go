package scenarios

import (
	"whodunit"
	"whodunit/internal/apps/meshkv"
	"whodunit/internal/apps/tpcw"
	"whodunit/internal/trace"
)

// Mega scenarios: the replicated layouts of the tpcw and meshkv models
// (Config.Replicas > 0) at corpus scale, each registered twice — sharded (one
// time domain per pod) and serial (identical topology on one domain).
// The two members of a pair are built from the same config except the
// Sharded flag, and their goldens are byte-identical files: the corpus
// pins the epoch scheduler's bit-identity guarantee, and CI gates
// whodunit-diff between the pair at -threshold 0.

// tpcwMegaConfig is the corpus-scale replicated TPC-W: 24 clients over
// three pods with fast think times so the run stays test-suite sized.
func tpcwMegaConfig(p Params, sharded bool) tpcw.Config {
	cfg := tpcw.DefaultConfig(24)
	cfg.Replicas = 3
	cfg.Sharded = sharded
	cfg.Duration = 4 * whodunit.Second
	cfg.ThinkMean = 250 * whodunit.Millisecond
	cfg.TomcatWorkers = 4
	cfg.SquidWorkers = 2
	cfg.DBWorkers = 3
	cfg.Mode = p.Mode
	cfg.Seed = p.Seed
	return cfg
}

func tpcwMegaScenario(name, about string, sharded bool) Scenario {
	return Scenario{
		Name: name, About: about,
		Defaults: Params{Seed: 1, Mode: whodunit.ModeWhodunit},
		Make: func(p Params) *whodunit.Report {
			return tpcw.Run(tpcwMegaConfig(p, sharded)).Report
		},
	}
}

// meshMegaConfig is the corpus-scale replicated mesh: a 600-event cache
// trace fanned across four pods by key hash. The app name is fixed so
// the sharded and serial reports stay byte-identical.
func meshMegaConfig(p Params, sharded bool) meshkv.Config {
	g := trace.CacheTrace()
	g.Events = 600
	g.Seed = p.Seed
	cfg := meshkv.DefaultConfig(trace.Gen(g))
	cfg.Name = "mesh-mega"
	cfg.Replicas = 4
	cfg.Shards = 2
	cfg.Mode = p.Mode
	cfg.Seed = p.Seed
	cfg.Sharded = sharded
	return cfg
}

func meshMegaScenario(name, about string, sharded bool) Scenario {
	return Scenario{
		Name: name, About: about,
		Defaults: Params{Seed: 5, Mode: whodunit.ModeWhodunit},
		Make: func(p Params) *whodunit.Report {
			return meshkv.Run(meshMegaConfig(p, sharded)).Report
		},
	}
}
