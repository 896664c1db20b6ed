package experiments

import (
	"fmt"
	"io"

	"whodunit/internal/apps/meshkv"
	"whodunit/internal/par"
	"whodunit/internal/trace"
)

// --- Mesh traffic: the microservice-mesh workload ---------------------

// MeshRow is one topology's steady-state traffic summary.
type MeshRow struct {
	Topology    string
	Events      int
	Throughput  float64 // requests per virtual second
	HitRatePct  float64
	GetMeanMs   float64
	SetMeanMs   float64
	MaxShardPct float64 // busiest shard's share of shard traffic
}

// MeshResult compares the standard and deep mesh topologies replaying
// the same cache trace — the beyond-paper workload exercising flow
// propagation across 4- and 7-tier service chains.
type MeshResult struct {
	Rows []MeshRow
}

// MeshTraffic replays a seeded Zipfian cache trace through the standard
// and the deep meshkv topologies and summarises per-op latency, cache
// behavior and shard balance.
func MeshTraffic(sc Scale) MeshResult {
	gcfg := trace.CacheTrace()
	gcfg.Events = 4 * sc.WebConns
	row := func(name string, deep bool) MeshRow {
		cfg := meshkv.DefaultConfig(trace.Gen(gcfg))
		cfg.Deep = deep
		res := meshkv.Run(cfg)
		var shardMax, shardTotal int64
		for _, n := range res.ShardLoad {
			shardTotal += n
			if n > shardMax {
				shardMax = n
			}
		}
		r := MeshRow{
			Topology:   name,
			Events:     len(cfg.Trace.Events),
			Throughput: res.ThroughputRPS,
			HitRatePct: 100 * res.HitRate(),
			GetMeanMs:  res.Gets.MeanLatency().Seconds() * 1e3,
			SetMeanMs:  res.Sets.MeanLatency().Seconds() * 1e3,
		}
		if shardTotal > 0 {
			r.MaxShardPct = 100 * float64(shardMax) / float64(shardTotal)
		}
		return r
	}
	var res MeshResult
	parallelInto(&res.Rows, []func() MeshRow{
		func() MeshRow { return row("standard (4-tier)", false) },
		func() MeshRow { return row("deep (7-tier)", true) },
	})
	return res
}

// parallelInto fans the row builders out through the experiment pool.
func parallelInto(dst *[]MeshRow, fns []func() MeshRow) {
	rows := make([]MeshRow, len(fns))
	par.Do(len(fns), func(i int) { rows[i] = fns[i]() })
	*dst = rows
}

// Render prints the mesh traffic table.
func (r MeshResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== Mesh traffic: microservice-mesh KV under trace replay ==")
	fmt.Fprintf(w, "%-20s %8s %10s %8s %10s %10s %10s\n",
		"topology", "events", "thru(r/s)", "hit%", "get(ms)", "set(ms)", "maxshard%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-20s %8d %10.0f %7.1f%% %10.2f %10.2f %9.1f%%\n",
			row.Topology, row.Events, row.Throughput, row.HitRatePct,
			row.GetMeanMs, row.SetMeanMs, row.MaxShardPct)
	}
	fmt.Fprintln(w)
}
