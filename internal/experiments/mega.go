package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"whodunit"
	"whodunit/internal/apps/meshkv"
	"whodunit/internal/apps/tpcw"
	"whodunit/internal/trace"
	"whodunit/internal/vclock"
	"whodunit/internal/workload"
)

// --- Mega-scale: epoch-sharded simulation -----------------------------

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
// painful to sweep. Epochs and MeanActive are the sharded run's
// epoch-loop counters: they say why Speedup reads what it reads. Every
// domain runs on one goroutine, so Speedup measures only what splitting
// one event queue into several saves or costs.
type MegaRow struct {
	App        string
	Clients    int
	Replicas   int
	SerialSec  float64
	ShardedSec float64
	Speedup    float64 // serial/sharded wall time; 0 when a side ran under minTimedSec
	Identical  bool
	Epochs     uint64  // epoch windows the sharded run went through
	MeanActive float64 // domains with an event inside a window, mean over epochs
	Completed  int64
	PerMin     float64 // completed interactions (or requests) per virtual minute
	MeanRespMs float64
}

// MegaScaleResult carries the sweep's rows.
type MegaScaleResult struct {
	Rows []MegaRow
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

// minTimedSec is the shortest wall time a speedup is computed from:
// below it the two sides differ by scheduler and timer noise, not by
// the work (the quick sweep's runs take 0.00–0.02 s).
const minTimedSec = 0.05

// measure runs one model serial, then sharded, timing each, and fills
// the row's timing, identity and epoch columns. run builds and runs the
// layout and returns its completed count, report and epoch counters.
// Speedup stays 0 (rendered n/a) when either side ran too briefly to
// time.
func (row *MegaRow) measure(run func(sharded bool) (int64, *whodunit.Report, whodunit.EpochStats)) {
	start := time.Now()
	serialN, serialRep, _ := run(false)
	row.SerialSec = time.Since(start).Seconds()
	start = time.Now()
	shardedN, shardedRep, st := run(true)
	row.ShardedSec = time.Since(start).Seconds()

	row.Identical = serialN == shardedN && identicalReports(serialRep, shardedRep)
	if row.SerialSec >= minTimedSec && row.ShardedSec >= minTimedSec {
		row.Speedup = row.SerialSec / row.ShardedSec
	}
	row.Epochs = st.Epochs
	if st.Epochs > 0 {
		row.MeanActive = float64(st.Active) / float64(st.Epochs)
	}
}

func megaTPCWRow(sw MegaSweep, clients int) MegaRow {
	row := MegaRow{App: "tpcw-mega", Clients: clients, Replicas: sw.Replicas}
	var res *tpcw.Result // the last run's: the sharded one, once measured
	row.measure(func(sharded bool) (int64, *whodunit.Report, whodunit.EpochStats) {
		cfg := tpcw.DefaultConfig(clients)
		cfg.Replicas = sw.Replicas
		cfg.Sharded = sharded
		cfg.Duration = sw.Duration
		cfg.ThinkMean = sw.Think
		res = tpcw.Run(cfg)
		return res.Completed, res.Report, res.Epochs
	})
	row.Completed = res.Completed
	row.PerMin = res.ThroughputPerMin
	var count int64
	var resp vclock.Duration
	for _, name := range workload.Interactions {
		count += res.PerType[name].Count
		resp += res.PerType[name].TotalResp
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
	row := MegaRow{App: "mesh-mega", Clients: events, Replicas: sw.Replicas}
	var res *meshkv.Result // the last run's: the sharded one, once measured
	row.measure(func(sharded bool) (int64, *whodunit.Report, whodunit.EpochStats) {
		cfg := meshkv.DefaultConfig(tr)
		cfg.Name = "meshkv-mega"
		cfg.Replicas = sw.Replicas
		cfg.Sharded = sharded
		cfg.Shards = 2
		res = meshkv.Run(cfg)
		return res.Completed, res.Report, res.Epochs
	})
	row.Completed = res.Completed
	row.PerMin = res.ThroughputRPS * 60
	if n := res.Gets.Count + res.Sets.Count; n > 0 {
		row.MeanRespMs = ((res.Gets.TotalLatency + res.Sets.TotalLatency) / vclock.Duration(n)).Millis()
	}
	return row
}

// MegaScale runs the replicated TPC-W and mesh deployments at each
// sweep scale, serial then sharded, and reports wall-clock speedup and
// bit-identity. The timed runs execute sequentially — not through the
// experiment pool — so each run has the whole host to itself and the
// wall-clock comparison is fair.
func MegaScale(sw MegaSweep) MegaScaleResult {
	var out MegaScaleResult
	for _, clients := range sw.Clients {
		out.Rows = append(out.Rows, megaTPCWRow(sw, clients))
		out.Rows = append(out.Rows, megaMeshRow(sw, clients))
	}
	return out
}

// Render prints the mega-scale table.
func (r MegaScaleResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== Mega-scale: one run split across time domains (WithShards) ==")
	fmt.Fprintf(w, "%-10s %9s %9s %10s %11s %8s %10s %12s %9s %9s %7s\n",
		"app", "clients", "replicas", "serial(s)", "sharded(s)", "speedup", "identical", "tx/min", "resp(ms)", "epochs", "active")
	for _, row := range r.Rows {
		speedup := "n/a" // runs too short to time, see minTimedSec
		if row.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", row.Speedup)
		}
		fmt.Fprintf(w, "%-10s %9d %9d %10.2f %11.2f %8s %10v %12.0f %9.1f %9d %7.2f\n",
			row.App, row.Clients, row.Replicas, row.SerialSec, row.ShardedSec,
			speedup, row.Identical, row.PerMin, row.MeanRespMs,
			row.Epochs, row.MeanActive)
	}
	fmt.Fprintln(w, "(active: mean domains with an event inside an epoch window. Every domain runs on one goroutine,")
	fmt.Fprintln(w, " so speedup measures what splitting one event queue into several saves or costs)")
}
