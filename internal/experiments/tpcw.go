package experiments

import (
	"fmt"
	"io"

	"whodunit/internal/apps/tpcw"
	"whodunit/internal/minidb"
	"whodunit/internal/par"
	"whodunit/internal/profiler"
	"whodunit/internal/vclock"
	"whodunit/internal/workload"
)

// TPCWScale sets run lengths for the TPC-W experiments.
type TPCWScale struct {
	Duration vclock.Duration
	Sweep    []int // client counts for Figures 11/12
}

// FullTPCW matches the paper sweep (50..500 clients).
var FullTPCW = TPCWScale{
	Duration: 5 * vclock.Minute,
	Sweep:    []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500},
}

// QuickTPCW keeps tests and benches fast.
var QuickTPCW = TPCWScale{
	Duration: 90 * vclock.Second,
	Sweep:    []int{50, 150, 300},
}

// --- Table 1 ----------------------------------------------------------

// Table1Row is one interaction's MySQL CPU share and mean crosstalk wait.
type Table1Row struct {
	Interaction string
	CPUSharePct float64
	MeanWaitMs  float64
}

// Table1Result reproduces Table 1 (browsing mix, 100 clients, MyISAM).
type Table1Result struct {
	Rows       []Table1Row
	Throughput float64
}

// Table1TPCW runs the browsing mix with 100 concurrent clients and
// reports MySQL CPU share and mean crosstalk per interaction.
func Table1TPCW(sc TPCWScale) Table1Result {
	cfg := tpcw.DefaultConfig(100)
	cfg.Duration = sc.Duration
	res := tpcw.Run(cfg)
	out := Table1Result{Throughput: res.ThroughputPerMin}
	for _, name := range workload.Interactions {
		out.Rows = append(out.Rows, Table1Row{
			Interaction: name,
			CPUSharePct: 100 * res.DBShare[name],
			MeanWaitMs:  res.MeanCrosstalk[name].Millis(),
		})
	}
	return out
}

// Render prints Table 1.
func (r Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Table 1: MySQL CPU profile (%) and mean crosstalk wait (ms), browsing mix, 100 clients ==")
	fmt.Fprintf(w, "%-24s %12s %16s\n", "transaction", "MySQL CPU %", "mean wait (ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %12.2f %16.2f\n", row.Interaction, row.CPUSharePct, row.MeanWaitMs)
	}
	fmt.Fprintln(w, "(paper: BestSellers 51.50%/22.16ms, SearchResult 43.28%/5.52ms, AdminConfirm 0.82%/93.76ms)")
}

// --- Figure 11 ---------------------------------------------------------

// Fig11Row is one client count's mean response times for the three
// interactions under original and optimized configurations.
type Fig11Row struct {
	Clients int
	// Milliseconds.
	AdminOrig, AdminOpt      float64
	BestOrig, BestCached     float64
	SearchOrig, SearchCached float64
}

// Fig11Result reproduces Figure 11.
type Fig11Result struct{ Rows []Fig11Row }

// Fig11ResponseTimes sweeps client counts, comparing the original system
// (MyISAM item table, no caching) against the optimized one (InnoDB item
// table for AdminConfirm; servlet caching for BestSellers/SearchResult).
// Every (client count, configuration) run is an independent simulation,
// so the whole sweep fans out across the worker pool; rows are assembled
// by sweep index, identical to the serial order.
func Fig11ResponseTimes(sc TPCWScale) Fig11Result {
	n := len(sc.Sweep)
	origs := make([]*tpcw.Result, n)
	opts := make([]*tpcw.Result, n)
	par.Do(2*n, func(j int) {
		i, optimized := j/2, j%2 == 1
		cfg := tpcw.DefaultConfig(sc.Sweep[i])
		cfg.Duration = sc.Duration
		if optimized {
			cfg.ItemEngine = minidb.EngineInnoDB
			cfg.ServletCaching = true
			opts[i] = tpcw.Run(cfg)
		} else {
			origs[i] = tpcw.Run(cfg)
		}
	})
	out := Fig11Result{Rows: make([]Fig11Row, n)}
	for i, clients := range sc.Sweep {
		ro, rp := origs[i], opts[i]
		out.Rows[i] = Fig11Row{
			Clients:      clients,
			AdminOrig:    ro.PerType[workload.AdminConfirm].Mean().Millis(),
			AdminOpt:     rp.PerType[workload.AdminConfirm].Mean().Millis(),
			BestOrig:     ro.PerType[workload.BestSellers].Mean().Millis(),
			BestCached:   rp.PerType[workload.BestSellers].Mean().Millis(),
			SearchOrig:   ro.PerType[workload.SearchResult].Mean().Millis(),
			SearchCached: rp.PerType[workload.SearchResult].Mean().Millis(),
		}
	}
	return out
}

// Render prints Figure 11's series.
func (r Fig11Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Figure 11: avg response time (ms), original vs optimized ==")
	fmt.Fprintf(w, "%8s %12s %12s %12s %12s %12s %12s\n",
		"clients", "admin-orig", "admin-opt", "best-orig", "best-cache", "search-orig", "search-cache")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8d %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f\n",
			row.Clients, row.AdminOrig, row.AdminOpt, row.BestOrig, row.BestCached,
			row.SearchOrig, row.SearchCached)
	}
	fmt.Fprintln(w, "(paper: AdminConfirm 640->550ms at 100 clients; caching slashes BestSellers/SearchResult)")
}

// --- Figure 12 ---------------------------------------------------------

// Fig12Row is one client count's throughput with and without caching.
type Fig12Row struct {
	Clients        int
	OriginalPerMin float64
	CachedPerMin   float64
}

// Fig12Result reproduces Figure 12.
type Fig12Result struct{ Rows []Fig12Row }

// Fig12Throughput sweeps client counts with and without servlet caching,
// fanning the independent (client count, caching) runs across the worker
// pool.
func Fig12Throughput(sc TPCWScale) Fig12Result {
	n := len(sc.Sweep)
	perMin := make([]float64, 2*n)
	par.Do(2*n, func(j int) {
		cfg := tpcw.DefaultConfig(sc.Sweep[j/2])
		cfg.Duration = sc.Duration
		cfg.ServletCaching = j%2 == 1
		perMin[j] = tpcw.Run(cfg).ThroughputPerMin
	})
	out := Fig12Result{Rows: make([]Fig12Row, n)}
	for i, clients := range sc.Sweep {
		out.Rows[i] = Fig12Row{
			Clients:        clients,
			OriginalPerMin: perMin[2*i],
			CachedPerMin:   perMin[2*i+1],
		}
	}
	return out
}

// Render prints Figure 12's series.
func (r Fig12Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Figure 12: throughput (interactions/min), browsing mix ==")
	fmt.Fprintf(w, "%8s %14s %14s\n", "clients", "original", "caching")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8d %14.0f %14.0f\n", row.Clients, row.OriginalPerMin, row.CachedPerMin)
	}
	fmt.Fprintln(w, "(paper: original saturates ~200 clients at 1184/min; caching ~450 clients at 3376/min, ~3x)")
}

// --- Table 2 -----------------------------------------------------------

// Table2Row is one profiling mode's peak TPC-W throughput.
type Table2Row struct {
	Mode        string
	PerMin      float64
	OverheadPct float64
}

// Table2Result reproduces Table 2.
type Table2Result struct {
	Rows []Table2Row
	// CommOverheadPct is the synopsis bytes / application bytes ratio of
	// the Whodunit run (§9.1 reports ~1%).
	CommOverheadPct float64
}

// Table2Overhead measures peak TPC-W throughput (past the saturation
// point) under no profiling, csprof, Whodunit and gprof.
func Table2Overhead(sc TPCWScale) Table2Result {
	modes := []profiler.Mode{
		profiler.ModeOff, profiler.ModeSampling, profiler.ModeWhodunit, profiler.ModeInstrumented,
	}
	results := make([]*tpcw.Result, len(modes))
	par.Do(len(modes), func(i int) {
		cfg := tpcw.DefaultConfig(300) // beyond the no-caching knee
		cfg.Duration = sc.Duration
		cfg.Mode = modes[i]
		results[i] = tpcw.Run(cfg)
	})
	base, cs, who, gp := results[0], results[1], results[2], results[3]
	row := func(name string, r *tpcw.Result) Table2Row {
		return Table2Row{Mode: name, PerMin: r.ThroughputPerMin,
			OverheadPct: 100 * (base.ThroughputPerMin - r.ThroughputPerMin) / base.ThroughputPerMin}
	}
	out := Table2Result{Rows: []Table2Row{
		row("no profile", base),
		row("csprof", cs),
		row("whodunit", who),
		row("gprof", gp),
	}}
	if who.AppBytes > 0 {
		out.CommOverheadPct = 100 * float64(who.CtxtBytes) / float64(who.AppBytes)
	}
	return out
}

// Render prints Table 2.
func (r Table2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Table 2: peak TPC-W throughput (interactions/min) under profiling tools ==")
	fmt.Fprintf(w, "%-12s %14s %10s\n", "profiler", "tx/min", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %14.0f %9.1f%%\n", row.Mode, row.PerMin, row.OverheadPct)
	}
	fmt.Fprintf(w, "context-synopsis communication overhead: %.2f%% of application bytes (paper ~1%%)\n", r.CommOverheadPct)
	fmt.Fprintln(w, "(paper: none 1184, csprof 1151 (<3%), whodunit 1150 (+<0.1%), gprof 898 (~24%))")
}
