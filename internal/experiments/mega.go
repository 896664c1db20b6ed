package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"whodunit"
	"whodunit/internal/apps/meshkv"
	"whodunit/internal/apps/tpcw"
	"whodunit/internal/trace"
	"whodunit/internal/vclock"
	"whodunit/internal/workload"
)

// --- Mega-scale: epoch-sharded parallel simulation --------------------

// MegaSweep sets the scale of the sharded-simulation experiment.
type MegaSweep struct {
	Clients  []int // tpcw client counts; also the meshkv trace sizes
	Replicas int
	Duration vclock.Duration
	Think    vclock.Duration
}

// FullMega is the 10^5-client point: one hundred thousand closed-loop
// TPC-W clients over eight pods, and a hundred-thousand-event mesh
// trace over eight pods.
var FullMega = MegaSweep{
	Clients:  []int{100_000},
	Replicas: 8,
	Duration: 30 * vclock.Second,
	Think:    7 * vclock.Second,
}

// QuickMega keeps tests and quick benches fast.
var QuickMega = MegaSweep{
	Clients:  []int{240},
	Replicas: 4,
	Duration: 4 * vclock.Second,
	Think:    250 * vclock.Millisecond,
}

// MegaRow is one app's serial-vs-sharded comparison at one scale: the
// wall-clock times of the identical run on one time domain and on one
// domain per pod, the resulting speedup, and whether the two reports
// were bit-identical (they must be). PerMin and MeanRespMs are the
// model-level throughput/response-time columns — the Figure 11/12
// measurements at a scale the serial simulator alone would make
// painful to sweep. Epochs, MeanActive and FanOutShare are the sharded
// run's epoch-loop counters: they say why Speedup reads what it reads —
// a run whose epochs mostly have one active domain has nothing to run
// side by side.
type MegaRow struct {
	App         string
	Clients     int
	Replicas    int
	SerialSec   float64
	ShardedSec  float64
	Speedup     float64
	Identical   bool
	Epochs      uint64  // epoch windows the sharded run went through
	MeanActive  float64 // domains with an event inside a window, mean over epochs
	FanOutShare float64 // share of epochs heavy enough to run on pool workers
	Completed   int64
	PerMin      float64 // completed interactions (or requests) per virtual minute
	MeanRespMs  float64
}

// MegaScaleResult carries the sweep plus the host parallelism it ran
// at: the speedup column is only meaningful relative to HostCPUs and
// GoMaxProcs (a 1-CPU host runs the sharded schedule with no
// parallelism, so speedup ~1 is the honest expected value there).
type MegaScaleResult struct {
	HostCPUs   int
	GoMaxProcs int
	Rows       []MegaRow
}

func identicalReports(a, b *whodunit.Report) bool {
	if !whodunit.Diff(a, b).Empty() {
		return false
	}
	var ja, jb bytes.Buffer
	if a.JSON(&ja) != nil || b.JSON(&jb) != nil {
		return false
	}
	return bytes.Equal(ja.Bytes(), jb.Bytes())
}

// compare fills the speedup column and the sharded run's epoch columns.
func (row *MegaRow) compare(serialSec, shardedSec float64, st whodunit.EpochStats) {
	if shardedSec > 0 {
		row.Speedup = serialSec / shardedSec
	}
	row.Epochs = st.Epochs
	if st.Epochs > 0 {
		row.MeanActive = float64(st.Active) / float64(st.Epochs)
		row.FanOutShare = float64(st.FanOuts) / float64(st.Epochs)
	}
}

func megaTPCWRow(sw MegaSweep, clients int) MegaRow {
	cfg := tpcw.DefaultMegaConfig(clients)
	cfg.Replicas = sw.Replicas
	cfg.Duration = sw.Duration
	cfg.ThinkMean = sw.Think
	run := func(sharded bool) (*tpcw.MegaResult, float64) {
		c := cfg
		c.Sharded = sharded
		start := time.Now()
		r := tpcw.MegaRun(c)
		return r, time.Since(start).Seconds()
	}
	serial, serialSec := run(false)
	sharded, shardedSec := run(true)
	row := MegaRow{
		App:        "tpcw-mega",
		Clients:    clients,
		Replicas:   sw.Replicas,
		SerialSec:  serialSec,
		ShardedSec: shardedSec,
		Identical:  serial.Completed == sharded.Completed && identicalReports(serial.Report, sharded.Report),
		Completed:  sharded.Completed,
		PerMin:     sharded.ThroughputPerMin,
	}
	row.compare(serialSec, shardedSec, sharded.Epochs)
	var count int64
	var resp vclock.Duration
	for _, name := range workload.Interactions {
		count += sharded.PerType[name].Count
		resp += sharded.PerType[name].TotalResp
	}
	if count > 0 {
		row.MeanRespMs = (resp / vclock.Duration(count)).Millis()
	}
	return row
}

func megaMeshRow(sw MegaSweep, events int) MegaRow {
	g := trace.CacheTrace()
	g.Events = events
	tr := trace.Gen(g)
	run := func(sharded bool) (*meshkv.MegaResult, float64) {
		cfg := meshkv.DefaultMegaConfig(tr)
		cfg.Replicas = sw.Replicas
		cfg.Sharded = sharded
		start := time.Now()
		r := meshkv.MegaRun(cfg)
		return r, time.Since(start).Seconds()
	}
	serial, serialSec := run(false)
	sharded, shardedSec := run(true)
	row := MegaRow{
		App:        "mesh-mega",
		Clients:    events,
		Replicas:   sw.Replicas,
		SerialSec:  serialSec,
		ShardedSec: shardedSec,
		Identical:  serial.Completed == sharded.Completed && identicalReports(serial.Report, sharded.Report),
		Completed:  sharded.Completed,
		PerMin:     sharded.ThroughputRPS * 60,
	}
	row.compare(serialSec, shardedSec, sharded.Epochs)
	if n := sharded.Gets.Count + sharded.Sets.Count; n > 0 {
		row.MeanRespMs = ((sharded.Gets.TotalLatency + sharded.Sets.TotalLatency) / vclock.Duration(n)).Millis()
	}
	return row
}

// MegaScale runs the replicated TPC-W and mesh deployments at each
// sweep scale, serial then sharded, and reports wall-clock speedup and
// bit-identity. The timed runs execute sequentially — not through the
// experiment pool — so each sharded run has the whole host to itself
// and the wall-clock comparison is fair.
func MegaScale(sw MegaSweep) MegaScaleResult {
	out := MegaScaleResult{HostCPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, clients := range sw.Clients {
		out.Rows = append(out.Rows, megaTPCWRow(sw, clients))
		out.Rows = append(out.Rows, megaMeshRow(sw, clients))
	}
	return out
}

// Render prints the mega-scale table.
func (r MegaScaleResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== Mega-scale: one run parallelized across time domains (WithShards) ==")
	fmt.Fprintf(w, "host: %d cpus, GOMAXPROCS %d\n", r.HostCPUs, r.GoMaxProcs)
	fmt.Fprintf(w, "%-10s %9s %9s %10s %11s %8s %10s %12s %9s %9s %7s %8s\n",
		"app", "clients", "replicas", "serial(s)", "sharded(s)", "speedup", "identical", "tx/min", "resp(ms)", "epochs", "active", "fan-out")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %9d %9d %10.2f %11.2f %7.2fx %10v %12.0f %9.1f %9d %7.2f %7.1f%%\n",
			row.App, row.Clients, row.Replicas, row.SerialSec, row.ShardedSec,
			row.Speedup, row.Identical, row.PerMin, row.MeanRespMs,
			row.Epochs, row.MeanActive, 100*row.FanOutShare)
	}
	fmt.Fprintln(w, "(active: mean domains with an event inside an epoch window; fan-out: share of epochs heavy enough to leave the calling")
	fmt.Fprintln(w, " goroutine. The rest run inline, so speedup is ~1x until epochs are heavy; then it is bounded by min(GOMAXPROCS, active))")
}
