// Command whodunit-apache runs the Apache case study (§8.1, §9.2): the
// multithreaded listener/worker server whose fd-queue critical sections
// execute on the bundled machine emulator, with shared-memory transaction
// flow detected automatically.
package main

import (
	"flag"
	"fmt"
	"os"

	"whodunit/internal/apps/apacheweb"
	"whodunit/internal/cmdutil"
	"whodunit/internal/workload"
)

func main() {
	conns := flag.Int("conns", 1000, "connections in the web trace")
	workers := flag.Int("workers", 8, "worker threads")
	mode := cmdutil.ModeFlag()
	jsonOut := cmdutil.JSONFlag()
	flag.Parse()

	wcfg := workload.DefaultWebConfig()
	wcfg.NumConns = *conns
	cfg := apacheweb.DefaultConfig(workload.GenWeb(wcfg))
	cfg.Workers = *workers
	cfg.Mode = *mode

	res := apacheweb.Run(cfg)
	report := res.Report // App.Run already assembled the unified report
	if *jsonOut {
		cmdutil.EmitJSON("whodunit-apache", report)
		return
	}

	fmt.Printf("served %d connections, %d requests, %.2f MB at %.2f Mb/s; emulation cycles: %d\n\n",
		res.Conns, res.Requests, float64(res.BytesSent)/1e6, res.ThroughputMbps, res.EmulationCycles)
	if fs := res.FlowStats; fs.CSEntries > 0 {
		fmt.Printf("flow tracker: %d critical sections, %d instructions traced, %d lock flushes, %d consumes, %d flows; dictionary %d entries on %d pages, register files %d live + %d pooled\n\n",
			fs.CSEntries, fs.Accesses, fs.LockFlushes, fs.Consumes, fs.Flows,
			fs.DictEntries, fs.ShadowPages, fs.RegFilesLive, fs.RegFilesPooled)
	}
	report.Text(os.Stdout)
	fmt.Println("\ntransactional profile (merged):")
	m := res.Profiler.Merged()
	m.Render(os.Stdout, m.Total(), 0.5)
}
