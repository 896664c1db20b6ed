// Command whodunit-mesh runs the microservice-mesh KV model: a frontend
// → rpc-proxy → sharded KV/cache → DB topology (-deep interposes edge,
// cache and db proxy hops for a 7-tier chain) replaying a deterministic
// generated trace, reporting per-op latency, cache behavior, shard
// balance and the mesh-wide stitched transaction graph.
//
//	whodunit-mesh                          # 4-shard standard topology, cache trace
//	whodunit-mesh -deep -workload metakv   # 7-tier chain under the bursty meta-KV mix
//	whodunit-mesh -trace t.jsonl           # replay a recorded trace file
//	whodunit-mesh -write-trace t.jsonl     # write the generated trace, then replay it
//	whodunit-mesh -json > mesh.json        # report JSON (whodunit-diff input)
//	whodunit-mesh -dot | dot -Tsvg         # stitched transaction graph
package main

import (
	"flag"
	"fmt"
	"os"

	"whodunit/internal/apps/meshkv"
	"whodunit/internal/cmdutil"
	"whodunit/internal/trace"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "whodunit-mesh: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	deep := flag.Bool("deep", false, "use the deep 7-tier proxy-chain topology")
	shards := flag.Int("shards", 4, "KV/cache shards on the consistent-hash ring")
	events := flag.Int("events", 2000, "trace events to generate (ignored with -trace)")
	seed := flag.Uint64("seed", 1, "trace and scheduling seed")
	workload := flag.String("workload", "cache", "generated trace shape: cache|metakv (ignored with -trace)")
	traceIn := flag.String("trace", "", "replay this trace file instead of generating one")
	traceOut := flag.String("write-trace", "", "write the generated trace to this file before replaying")
	mode := cmdutil.ModeFlag()
	jsonOut := cmdutil.JSONFlag()
	dot := flag.Bool("dot", false, "emit the stitched graph as Graphviz dot")
	flag.Parse()

	if flag.NArg() > 0 {
		fail("unexpected arguments %q (configuration is flag-only)", flag.Args())
	}
	if *shards < 1 {
		fail("-shards must be at least 1 (got %d)", *shards)
	}
	if *events < 1 {
		fail("-events must be at least 1 (got %d)", *events)
	}
	if *traceIn != "" && *traceOut != "" {
		fail("-trace and -write-trace conflict: replaying a file generates nothing to write")
	}

	var tr *trace.Trace
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fail("%v", err)
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			fail("%s: %v", *traceIn, err)
		}
		if tr.Lost > 0 {
			fmt.Fprintf(os.Stderr, "whodunit-mesh: %s: salvaged %d events (%d lost)\n",
				*traceIn, len(tr.Events), tr.Lost)
		}
		if len(tr.Events) == 0 {
			fail("%s: no replayable events", *traceIn)
		}
	} else {
		var gcfg trace.GenConfig
		switch *workload {
		case "cache":
			gcfg = trace.CacheTrace()
		case "metakv":
			gcfg = trace.MetaKV()
		default:
			fail("unknown workload %q (want cache or metakv)", *workload)
		}
		gcfg.Seed = *seed
		gcfg.Events = *events
		tr = trace.Gen(gcfg)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fail("%v", err)
			}
			if err := trace.Write(f, tr); err != nil {
				fail("%s: %v", *traceOut, err)
			}
			if err := f.Close(); err != nil {
				fail("%s: %v", *traceOut, err)
			}
		}
	}

	cfg := meshkv.DefaultConfig(tr)
	cfg.Deep = *deep
	cfg.Shards = *shards
	cfg.Seed = *seed
	cfg.Mode = *mode

	res := meshkv.Run(cfg)
	if !*jsonOut && !*dot {
		topology := "standard (frontend → rpc-proxy → kv → db)"
		if *deep {
			topology = "deep (frontend → edge-proxy → rpc-proxy → cache-proxy → kv → db-proxy → db)"
		}
		fmt.Printf("topology %s, %d shards\n", topology, cfg.Shards)
		fmt.Printf("replayed %d events in %v virtual: %.0f req/s, %.1f%% cache hits\n",
			res.Completed, res.Elapsed.Seconds(), res.ThroughputRPS, 100*res.HitRate())
		fmt.Printf("gets %d (mean %.2f ms), sets %d (mean %.2f ms)\n",
			res.Gets.Count, res.Gets.MeanLatency().Seconds()*1e3,
			res.Sets.Count, res.Sets.MeanLatency().Seconds()*1e3)
		fmt.Printf("shard load:")
		for i, n := range res.ShardLoad {
			fmt.Printf(" kv-%d=%d", i, n)
		}
		fmt.Printf("\n\n")
	}
	if err := cmdutil.EmitReport(os.Stdout, res.Report, *jsonOut, *dot, false); err != nil {
		fmt.Fprintf(os.Stderr, "whodunit-mesh: %v\n", err)
		os.Exit(1)
	}
}
