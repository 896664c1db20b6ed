package whodunit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"whodunit/internal/profiler"
	"whodunit/internal/stitch"
)

// ContextShare is one context's share of a stage's profile samples.
type ContextShare = profiler.ContextShare

// StageReport is one stage's slice of a Report: profiler statistics,
// per-context sample shares, and the raw dump the stitcher consumes.
type StageReport struct {
	Stage string `json:"stage"`
	// Mode is ModeOff both for genuine off-mode runs and for reports
	// rebuilt from raw dumps, which do not record the mode (the two are
	// indistinguishable anyway: off-mode runs take no samples). It is
	// omitted from JSON in that case rather than asserted.
	Mode         Mode           `json:"mode,omitempty"`
	Samples      int64          `json:"samples"`
	Calls        int64          `json:"calls,omitempty"`
	CtxtSwitches int64          `json:"ctxt_switches,omitempty"`
	Overhead     Duration       `json:"overhead_ns"`
	Shares       []ContextShare `json:"shares,omitempty"`
	Dump         StageDump      `json:"dump"`
}

// NewStageReport captures a stage's profile (and the endpoints whose
// sends should become request edges) into a StageReport: a running
// profiler's through Profiler.View, a window's through Profiler.Retire
// or Profiler.Snapshot.
func NewStageReport(s *profiler.Snapshot, eps ...*Endpoint) StageReport {
	samples, calls, switches, overhead := s.Stats()
	return StageReport{
		Stage:        s.Stage,
		Mode:         s.Mode,
		Samples:      samples,
		Calls:        calls,
		CtxtSwitches: switches,
		Overhead:     overhead,
		Shares:       s.Shares(),
		Dump:         stitch.Dump(s, eps...),
	}
}

// stageReportFromDump rebuilds the derivable parts of a StageReport from
// a raw dump (mode and overheads are not recorded in dumps).
func stageReportFromDump(d StageDump) StageReport {
	sr := StageReport{Stage: d.Stage, Dump: d}
	for _, td := range d.Trees {
		sr.Samples += td.Total
	}
	for _, td := range d.Trees {
		share := 0.0
		if sr.Samples > 0 {
			share = float64(td.Total) / float64(sr.Samples)
		}
		sr.Shares = append(sr.Shares, ContextShare{Label: td.Label, Samples: td.Total, Share: share})
	}
	return sr
}

// WindowMeta identifies the aggregation window a Report covers in a
// windowed (continuous-profiling) run: its 0-based sequence number and
// its [Start, End) span on the virtual clock, as durations since the
// simulation epoch.
type WindowMeta struct {
	Seq   int64    `json:"seq"`
	Start Duration `json:"start_ns"`
	End   Duration `json:"end_ns"`
}

// Report is the unified outcome of a Whodunit run: every stage's
// transactional profile, the crosstalk matrix, detected shared-memory
// flows, and the stitched end-to-end transaction graph. App.Run returns
// one; the Text, JSON, DOT and Folded renderers present it.
type Report struct {
	App     string   `json:"app"`
	Elapsed Duration `json:"elapsed_ns"`
	// Window is set on reports covering one aggregation window of a
	// windowed run (nil for whole-run reports).
	Window    *WindowMeta     `json:"window,omitempty"`
	Stages    []StageReport   `json:"stages"`
	Crosstalk []CrosstalkPair `json:"crosstalk,omitempty"`
	Flows     []FlowEvent     `json:"flows,omitempty"`
	// Faults is the ledger of injected faults that actually fired, set
	// on whole-run reports of faulted apps (WithFaults). Window reports
	// omit it: the ledger is cumulative, and copying it into every
	// window would make behaviorally identical windows diff non-empty.
	Faults *FaultStats `json:"faults,omitempty"`
	// Missing names stages whose dumps are known to be absent (a crashed
	// tier that never dumped, a stage dropped with DropStage): the graph
	// is stitched as a partial one, with severed cross-stage edges
	// annotated instead of silently discarded.
	Missing []string `json:"missing,omitempty"`

	// Graph is stitched from the stage dumps; it is rebuilt on decode
	// rather than serialized.
	Graph *TransactionGraph `json:"-"`
}

// NewReport assembles stage reports into a Report, stitching their dumps
// into the transaction graph.
func NewReport(app string, stages ...StageReport) *Report {
	r := &Report{App: app, Stages: stages}
	r.restitch()
	return r
}

// ReportFromDumps builds a Report from raw per-stage dumps (e.g. JSON
// files written by separate processes) — the post-mortem presentation
// phase as a single call.
func ReportFromDumps(app string, dumps ...StageDump) *Report {
	srs := make([]StageReport, 0, len(dumps))
	for _, d := range dumps {
		srs = append(srs, stageReportFromDump(d))
	}
	return NewReport(app, srs...)
}

func (r *Report) restitch() {
	dumps := make([]StageDump, 0, len(r.Stages))
	for _, sr := range r.Stages {
		dumps = append(dumps, sr.Dump)
	}
	// With stages declared missing the graph is stitched partially:
	// sends into the void become severed edges instead of vanishing.
	r.Graph = stitch.BuildPartial(dumps, r.Missing)
}

// DropStage returns a copy of the report with the named stages' dumps
// removed and recorded as Missing, restitched into a partial graph —
// the report a collection pass produces when a tier's dump never
// arrived. Names not present in the report are ignored. The receiver
// is unchanged.
func (r *Report) DropStage(names ...string) *Report {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	cp := *r
	cp.Stages = make([]StageReport, 0, len(r.Stages))
	cp.Missing = append([]string(nil), r.Missing...)
	for _, sr := range r.Stages {
		if drop[sr.Stage] {
			cp.Missing = append(cp.Missing, sr.Stage)
			continue
		}
		cp.Stages = append(cp.Stages, sr)
	}
	sort.Strings(cp.Missing)
	cp.restitch()
	return &cp
}

// StageNamed returns the report of the named stage, or nil.
func (r *Report) StageNamed(name string) *StageReport {
	for i := range r.Stages {
		if r.Stages[i].Stage == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// TotalSamples sums profile samples across every stage.
func (r *Report) TotalSamples() int64 {
	var n int64
	for _, sr := range r.Stages {
		n += sr.Samples
	}
	return n
}

// JSON writes the report as indented JSON: the same bytes as a
// json.Encoder with SetIndent("", "  "), final newline included. The
// stitched graph is derived data and is omitted; ReadReport rebuilds it.
//
// The whole document is never held in memory. encoding/json encodes each
// field but the flow log, one field at a time, before anything is
// written, so an encoding error writes nothing. The flow log, which §3's
// flow detection makes the bulk of a large report, is then written flow
// by flow through a buffer of a few KB.
func (r *Report) JSON(w io.Writer) error {
	fields := [...]struct {
		key  string
		v    any
		omit bool
	}{
		{"app", r.App, false},
		{"elapsed_ns", r.Elapsed, false},
		{"window", r.Window, r.Window == nil},
		{"stages", r.Stages, false},
		{"crosstalk", r.Crosstalk, len(r.Crosstalk) == 0},
		{"flows", r.Flows, len(r.Flows) == 0},
		{"faults", r.Faults, r.Faults == nil},
		{"missing", r.Missing, len(r.Missing) == 0},
	}
	var vals [len(fields)][]byte
	for i, f := range fields {
		if _, flows := f.v.([]FlowEvent); flows || f.omit {
			continue
		}
		b, err := json.MarshalIndent(f.v, "  ", "  ")
		if err != nil {
			return fmt.Errorf("whodunit: encode report: %w", err)
		}
		vals[i] = b
	}
	// bw keeps the first write error and writes nothing after it; Flush
	// returns it.
	bw := bufio.NewWriterSize(w, jsonChunk)
	var flow []byte // one flow's encoding, reused
	sep := "{\n  \""
	for i, f := range fields {
		if f.omit {
			continue
		}
		bw.WriteString(sep)
		bw.WriteString(f.key)
		bw.WriteString(`": `)
		sep = ",\n  \""
		flows, ok := f.v.([]FlowEvent)
		if !ok {
			bw.Write(vals[i])
			continue
		}
		bw.WriteString("[\n")
		for j, fe := range flows {
			if j > 0 {
				bw.WriteString(",\n")
			}
			flow = appendFlow(flow[:0], fe)
			bw.Write(flow)
		}
		bw.WriteString("\n  ]")
	}
	bw.WriteString("\n}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("whodunit: encode report: %w", err)
	}
	return nil
}

// jsonChunk is how much Report.JSON gathers before a write to its
// writer.
const jsonChunk = 8 << 10

// appendFlow appends one flow-log element as encoding/json indents it at
// depth two of a report. It is the one place FlowEvent's JSON layout is
// written; ReadReport decodes it with encoding/json.
func appendFlow(b []byte, f FlowEvent) []byte {
	b = append(b, "    {\n      \"Producer\": "...)
	b = strconv.AppendInt(b, int64(f.Producer), 10)
	b = append(b, ",\n      \"Consumer\": "...)
	b = strconv.AppendInt(b, int64(f.Consumer), 10)
	b = append(b, ",\n      \"Token\": "...)
	b = strconv.AppendUint(b, uint64(f.Token), 10)
	b = append(b, ",\n      \"Lock\": "...)
	b = strconv.AppendInt(b, int64(f.Lock), 10)
	b = append(b, ",\n      \"Loc\": {\n        \"Kind\": "...)
	b = strconv.AppendUint(b, uint64(f.Loc.Kind), 10)
	b = append(b, ",\n        \"Addr\": "...)
	b = strconv.AppendUint(b, uint64(f.Loc.Addr), 10)
	b = append(b, ",\n        \"Thread\": "...)
	b = strconv.AppendInt(b, int64(f.Loc.Thread), 10)
	return append(b, "\n      }\n    }"...)
}

// ReadReport decodes a JSON report and restitches its transaction graph.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("whodunit: decode report: %w", err)
	}
	r.restitch()
	return &r, nil
}

// Text writes the full human-readable report: per-stage context shares,
// the crosstalk matrix, detected flows, and the stitched graph.
func (r *Report) Text(w io.Writer) {
	fmt.Fprintf(w, "=== whodunit report: %s ===\n", r.App)
	if r.Window != nil {
		fmt.Fprintf(w, "window %d: [%.6fs, %.6fs)\n",
			r.Window.Seq, r.Window.Start.Seconds(), r.Window.End.Seconds())
	}
	if r.Elapsed > 0 {
		fmt.Fprintf(w, "virtual time elapsed: %.6fs\n", r.Elapsed.Seconds())
	}
	if r.Faults != nil {
		fmt.Fprintf(w, "faults injected: %s\n", faultSummary(r.Faults))
	}
	if len(r.Missing) > 0 {
		fmt.Fprintf(w, "missing stage dumps: %s\n", strings.Join(r.Missing, ", "))
	}
	for _, sr := range r.Stages {
		fmt.Fprintf(w, "\nstage %s", sr.Stage)
		// A dump-derived report does not know the mode; ModeOff next to a
		// nonzero sample count means exactly that, so suppress it.
		if sr.Mode != ModeOff || sr.Samples == 0 {
			fmt.Fprintf(w, " (%s)", sr.Mode)
		}
		fmt.Fprintf(w, ": %d samples", sr.Samples)
		if sr.CtxtSwitches > 0 {
			fmt.Fprintf(w, ", %d context switches", sr.CtxtSwitches)
		}
		if sr.Calls > 0 {
			fmt.Fprintf(w, ", %d instrumented calls", sr.Calls)
		}
		fmt.Fprintln(w)
		if sr.Dump.Lost > 0 {
			fmt.Fprintf(w, "  (dump truncated: %d records lost)\n", sr.Dump.Lost)
		}
		for _, sh := range sr.Shares {
			if sh.Samples == 0 {
				continue
			}
			fmt.Fprintf(w, "  %6.2f%%  %s\n", 100*sh.Share, sh.Label)
		}
	}
	if len(r.Crosstalk) > 0 {
		fmt.Fprintf(w, "\ncrosstalk (waiter <- holder):\n")
		fmt.Fprintf(w, "  %-24s %-24s %8s %12s\n", "waiter", "holder", "count", "mean wait")
		for _, p := range r.Crosstalk {
			fmt.Fprintf(w, "  %-24s %-24s %8d %10.2fms\n", p.Waiter, p.Holder, p.Count, p.Mean.Millis())
		}
	}
	if len(r.Flows) > 0 {
		fmt.Fprintf(w, "\nshared-memory flows detected: %d\n", len(r.Flows))
	}
	if r.Graph != nil && len(r.Graph.Nodes) > 0 {
		fmt.Fprintf(w, "\nstitched transaction graph:\n")
		r.Graph.Render(w)
	}
}

// faultSummary renders the nonzero counters of a fault ledger on one
// line, e.g. "3 messages dropped, 1 crash, 1 restart".
func faultSummary(s *FaultStats) string {
	var parts []string
	add := func(n int64, singular, plural string) {
		if n == 0 {
			return
		}
		word := plural
		if n == 1 {
			word = singular
		}
		parts = append(parts, fmt.Sprintf("%d %s", n, word))
	}
	add(s.Dropped, "message dropped", "messages dropped")
	add(s.Duplicated, "message duplicated", "messages duplicated")
	add(s.Delayed, "message delayed", "messages delayed")
	add(s.Crashes, "crash", "crashes")
	add(s.Restarts, "restart", "restarts")
	add(s.Stalls, "stall", "stalls")
	add(s.Failures, "injected failure", "injected failures")
	return strings.Join(parts, ", ")
}

// Folded writes the report in folded-stacks form — one line per call
// path, semicolon-separated frames with the sample count after the last
// space — the input format of flamegraph.pl and compatible renderers:
//
//	stage;transaction context;frame;frame... samples
//
// Each stack is prefixed with its stage and transaction-context label,
// so a flame graph of a Whodunit run shows one tower per (stage,
// transaction type): the per-context attribution the paper's triangles
// present, as a flame graph. Works on decoded reports too, since it
// reads the stage dumps.
func (r *Report) Folded(w io.Writer) {
	for _, sr := range r.Stages {
		for _, td := range sr.Dump.Trees {
			for _, rec := range td.Records {
				if rec.Self == 0 {
					continue
				}
				fmt.Fprintf(w, "%s;%s;%s %d\n",
					sr.Stage, td.Label, strings.Join(rec.Path, ";"), rec.Self)
			}
		}
	}
}

// DOT writes the stitched transaction graph in Graphviz dot syntax.
func (r *Report) DOT(w io.Writer) {
	if r.Graph == nil {
		r.restitch()
	}
	r.Graph.DOT(w)
}
