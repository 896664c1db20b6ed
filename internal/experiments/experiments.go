// Package experiments regenerates every table and figure of the paper's
// evaluation (§8, §9). Each experiment has a typed result and a Render
// method printing rows in the paper's layout.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"whodunit/internal/apps/apacheweb"
	"whodunit/internal/apps/haboob"
	"whodunit/internal/apps/squidproxy"
	"whodunit/internal/par"
	"whodunit/internal/profiler"
	"whodunit/internal/shmflow"
	"whodunit/internal/vm"
	"whodunit/internal/workload"
)

// Scale shrinks workloads for quick runs (tests, benches). Full-size runs
// use Scale = 1.
type Scale struct {
	WebConns int // connections in the web trace
}

// FullScale matches the paper-scale runs used by cmd/whodunit-bench.
var FullScale = Scale{WebConns: 2000}

// QuickScale keeps unit tests and benches fast.
var QuickScale = Scale{WebConns: 250}

func webTrace(sc Scale) *workload.WebTrace {
	cfg := workload.DefaultWebConfig()
	cfg.NumConns = sc.WebConns
	cfg.MinSize = 4 << 10
	return workload.GenWeb(cfg)
}

// --- Figure 8: Apache transactional profile --------------------------

// Fig8Result is the Apache listener→worker transactional profile.
type Fig8Result struct {
	Flows          int     // shared-memory flow events detected
	AcceptSharePct float64 // accept path share of total samples
	ServeSharePct  float64 // ap_process_connection share
	ProfileText    string
}

// Fig8Apache reproduces Figure 8. An optional mode overrides the default
// Whodunit profiling (e.g. to compare against the csprof baseline).
func Fig8Apache(sc Scale, mode ...profiler.Mode) Fig8Result {
	cfg := apacheweb.DefaultConfig(webTrace(sc))
	if len(mode) > 0 {
		cfg.Mode = mode[0]
	}
	res := apacheweb.Run(cfg)
	m := res.Profiler.Merged()
	total := m.Total()
	share := func(path ...string) float64 {
		if total == 0 {
			return 0
		}
		n, _ := m.Find(path...)
		return 100 * float64(n.Inclusive) / float64(total)
	}
	var sb strings.Builder
	m.Render(&sb, total, 0.5)
	return Fig8Result{
		Flows:          len(res.Flows),
		AcceptSharePct: share("listener_thread"),
		ServeSharePct:  share("worker_thread", "ap_process_connection"),
		ProfileText:    sb.String(),
	}
}

// Render prints the Figure 8 summary.
func (r Fig8Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Figure 8: transactional profile of Apache ==")
	fmt.Fprintf(w, "shared-memory flows detected (ap_queue_push -> ap_queue_pop): %d\n", r.Flows)
	fmt.Fprintf(w, "listener accept path: %5.2f%% of profile (paper: 2.4%%)\n", r.AcceptSharePct)
	fmt.Fprintf(w, "ap_process_connection: %5.2f%% of profile (paper: 22.7%% + sendfile)\n", r.ServeSharePct)
	fmt.Fprintln(w, r.ProfileText)
}

// --- Figure 9: Squid transactional profile ---------------------------

// Fig9Row is one transaction context of the Squid profile.
type Fig9Row struct {
	Context  string
	SharePct float64
}

// Fig9Result is the per-context Squid profile.
type Fig9Result struct {
	Rows         []Fig9Row
	HitWritePct  float64 // commHandleWrite via the hit context
	MissWritePct float64 // commHandleWrite via the miss context
	Hits, Misses int64
}

// Fig9Squid reproduces Figure 9. An optional mode overrides the default
// Whodunit profiling.
func Fig9Squid(sc Scale, mode ...profiler.Mode) Fig9Result {
	cfg := squidproxy.DefaultConfig(webTrace(sc))
	if len(mode) > 0 {
		cfg.Mode = mode[0]
	}
	res := squidproxy.Run(cfg)
	out := Fig9Result{Hits: res.Hits, Misses: res.Misses}
	for _, sh := range res.Profiler.Shares() {
		if sh.Samples == 0 {
			continue
		}
		out.Rows = append(out.Rows, Fig9Row{Context: sh.Label, SharePct: 100 * sh.Share})
		if strings.HasSuffix(sh.Label, "commHandleWrite") {
			if strings.Contains(sh.Label, "httpReadReply") {
				out.MissWritePct += 100 * sh.Share
			} else {
				out.HitWritePct += 100 * sh.Share
			}
		}
	}
	return out
}

// Render prints the Figure 9 rows.
func (r Fig9Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Figure 9: transactional profile of Squid ==")
	fmt.Fprintf(w, "cache hits: %d  misses: %d\n", r.Hits, r.Misses)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6.2f%%  %s\n", row.SharePct, row.Context)
	}
	fmt.Fprintf(w, "commHandleWrite split: hit-path %.2f%% vs miss-path %.2f%% (paper: 28.2%% vs 38.5%%)\n",
		r.HitWritePct, r.MissWritePct)
}

// --- Figure 10: Haboob transactional profile -------------------------

// Fig10Row is one (context, share) pair of the Haboob profile.
type Fig10Row struct {
	Context  string
	SharePct float64
}

// Fig10Result is the per-context Haboob profile.
type Fig10Result struct {
	Rows         []Fig10Row
	HitWritePct  float64
	MissWritePct float64
}

// Fig10Haboob reproduces Figure 10. An optional mode overrides the
// default Whodunit profiling.
func Fig10Haboob(sc Scale, mode ...profiler.Mode) Fig10Result {
	cfg := haboob.DefaultConfig(webTrace(sc))
	if len(mode) > 0 {
		cfg.Mode = mode[0]
	}
	res := haboob.Run(cfg)
	out := Fig10Result{}
	for _, sh := range res.Profiler.Shares() {
		if sh.Samples == 0 {
			continue
		}
		out.Rows = append(out.Rows, Fig10Row{Context: sh.Label, SharePct: 100 * sh.Share})
		if strings.HasSuffix(sh.Label, "haboob#WriteStage") {
			if strings.Contains(sh.Label, "MissStage") {
				out.MissWritePct += 100 * sh.Share
			} else {
				out.HitWritePct += 100 * sh.Share
			}
		}
	}
	return out
}

// Render prints the Figure 10 rows.
func (r Fig10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Figure 10: transactional profile of Haboob (SEDA) ==")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6.2f%%  %s\n", row.SharePct, row.Context)
	}
	fmt.Fprintf(w, "WriteStage split: hit-path %.2f%% vs miss-path %.2f%% (paper: 37.65%% vs 46.58%%)\n",
		r.HitWritePct, r.MissWritePct)
}

// --- Table 3: cost of emulation ---------------------------------------

// Table3Row is one critical section's cycle costs under the three modes.
type Table3Row struct {
	Name            string
	DirectCycles    int64
	TranslateCycles int64
	CachedEmuCycles int64
}

// Table3Result reproduces Table 3.
type Table3Result struct{ Rows []Table3Row }

// Table3Emulation measures Apache's queue critical sections under direct
// execution, first-time translation+emulation, and cached emulation.
func Table3Emulation() Table3Result {
	measure := func(prog *vm.Program, entry string, regs map[byte]int64) Table3Row {
		row := Table3Row{Name: prog.Name}
		runOnce := func(m *vm.Machine) int64 {
			th, err := m.Spawn(prog, entry)
			if err != nil {
				panic(err)
			}
			for r, v := range regs {
				th.Regs[r] = v
			}
			// A queue element must exist for pop to read.
			m.Mem.Store(shmflow.QueueBase, 1)
			if err := m.Run(100000); err != nil {
				panic(err)
			}
			return th.Cycles
		}
		md := vm.NewMachine()
		md.Mode = vm.ModeDirect
		row.DirectCycles = runOnce(md)

		me := vm.NewMachine()
		me.Mode = vm.ModeEmulateCS
		row.TranslateCycles = runOnce(me) // cold cache: translate + emulate
		row.CachedEmuCycles = runOnce(me) // warm cache: emulate only
		return row
	}
	return Table3Result{Rows: []Table3Row{
		measure(shmflow.ApachePush, "push", map[byte]int64{1: shmflow.QueueBase, 4: 1, 5: 2}),
		measure(shmflow.ApachePop, "pop", map[byte]int64{1: shmflow.QueueBase, 9: 0x8000}),
	}}
}

// Render prints Table 3.
func (r Table3Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Table 3: execution time of Apache's critical sections (cycles) ==")
	fmt.Fprintf(w, "%-16s %12s %22s %16s\n", "critical section", "direct", "translate+emulate", "emulation only")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %12d %22d %16d\n", row.Name, row.DirectCycles, row.TranslateCycles, row.CachedEmuCycles)
	}
	fmt.Fprintln(w, "(paper: push 131.64 / 62508 / 11606.8; pop 109.72 / 40852 / 12118)")
}

// --- §9.2 / §9.3: server overheads ------------------------------------

// OverheadRow is one server's throughput with and without Whodunit.
type OverheadRow struct {
	Server       string
	BaselineMbps float64
	ProfiledMbps float64
	OverheadPct  float64
}

// OverheadResult covers §9.2 (Apache) and §9.3 (Squid, Haboob).
type OverheadResult struct{ Rows []OverheadRow }

// ServerOverheads measures Whodunit's throughput cost on the three web
// servers. The six runs (three servers, profiled and baseline) are
// independent simulations sharing one read-only trace, so they fan out
// across the worker pool.
func ServerOverheads(sc Scale) OverheadResult {
	tr := webTrace(sc)
	runs := []struct {
		name string
		run  func(mode profiler.Mode) float64
	}{
		{"apache (§9.2)", func(m profiler.Mode) float64 {
			cfg := apacheweb.DefaultConfig(tr)
			cfg.Mode = m
			return apacheweb.Run(cfg).ThroughputMbps
		}},
		{"squid (§9.3)", func(m profiler.Mode) float64 {
			cfg := squidproxy.DefaultConfig(tr)
			cfg.Mode = m
			return squidproxy.Run(cfg).ThroughputMbps
		}},
		{"haboob (§9.3)", func(m profiler.Mode) float64 {
			cfg := haboob.DefaultConfig(tr)
			cfg.Mode = m
			return haboob.Run(cfg).ThroughputMbps
		}},
	}
	mbps := make([]float64, 2*len(runs))
	par.Do(2*len(runs), func(j int) {
		r := runs[j/2]
		mode := profiler.ModeOff
		if j%2 == 1 {
			mode = profiler.ModeWhodunit
		}
		mbps[j] = r.run(mode)
	})
	var out OverheadResult
	for i, r := range runs {
		base, prof := mbps[2*i], mbps[2*i+1]
		out.Rows = append(out.Rows, OverheadRow{Server: r.name, BaselineMbps: base,
			ProfiledMbps: prof, OverheadPct: 100 * (base - prof) / base})
	}
	return out
}

// Render prints the overhead rows.
func (r OverheadResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== §9.2/§9.3: Whodunit overhead on server peak throughput ==")
	fmt.Fprintf(w, "%-16s %14s %14s %10s\n", "server", "baseline Mb/s", "profiled Mb/s", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %14.2f %14.2f %9.1f%%\n", row.Server, row.BaselineMbps, row.ProfiledMbps, row.OverheadPct)
	}
	fmt.Fprintln(w, "(paper: apache 393.64->384.58 = 2.3%; squid 262.27->247.85 = 5.5%; haboob 31.16->29.84 = 4.2%)")
}

// FlowValidation re-runs the §8.1 validation: flow detected in the Apache
// pattern, none in the shared-counter (MySQL) pattern, allocator demoted.
type FlowValidationResult struct {
	ApacheFlows      int
	CounterFlows     int
	AllocatorDemoted bool
}

// FlowValidation runs the three §3 validation scenarios on the VM.
func FlowValidation() FlowValidationResult {
	run := func(setup func(m *vm.Machine, tr *shmflow.Tracker)) *shmflow.Tracker {
		m := vm.NewMachine()
		m.Mode = vm.ModeEmulateCS
		tr := shmflow.NewTracker()
		tr.ThreadCtxt = func(tid int32) shmflow.Token { return shmflow.Token(tid + 1) }
		m.Tracer = tr
		setup(m, tr)
		if err := m.Run(1_000_000); err != nil {
			panic(err)
		}
		return tr
	}
	apache := run(func(m *vm.Machine, _ *shmflow.Tracker) {
		p, _ := m.Spawn(shmflow.ApachePush, "push")
		p.Regs[1], p.Regs[4], p.Regs[5] = shmflow.QueueBase, 7, 8
		c, _ := m.Spawn(shmflow.ApachePop, "pop")
		c.Regs[1], c.Regs[9] = shmflow.QueueBase, 0x8000
	})
	counter := run(func(m *vm.Machine, _ *shmflow.Tracker) {
		for i := 0; i < 2; i++ {
			t, _ := m.Spawn(shmflow.SharedCounter, "main")
			t.Regs[1], t.Regs[2] = shmflow.CounterAddr, 25
		}
	})
	alloc := run(func(m *vm.Machine, _ *shmflow.Tracker) {
		t, _ := m.Spawn(shmflow.AllocWork, "main")
		t.Regs[2], t.Regs[4], t.Regs[9] = shmflow.FreeHead, 0x3100, 0x8000
	})
	return FlowValidationResult{
		ApacheFlows:      len(apache.Flows()),
		CounterFlows:     len(counter.Flows()),
		AllocatorDemoted: alloc.NonFlow(shmflow.AllocLock),
	}
}

// Render prints the validation summary.
func (r FlowValidationResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== §8.1 validation: shared-memory flow detection ==")
	fmt.Fprintf(w, "apache queue: %d flows (want >0); shared counter: %d flows (want 0); allocator demoted: %v (want true)\n",
		r.ApacheFlows, r.CounterFlows, r.AllocatorDemoted)
}
