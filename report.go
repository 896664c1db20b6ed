package whodunit

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"whodunit/internal/profiler"
	"whodunit/internal/stitch"
	"whodunit/internal/vm"
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
// profiler's (or a served window in progress) through Profiler.View, a
// retired window's through Profiler.Retire.
func NewStageReport(s *profiler.Snapshot, eps ...*Endpoint) StageReport {
	samples, calls, switches, overhead := s.Stats()
	d := stitch.Dump(s, eps...)
	return StageReport{
		Stage:        s.Stage,
		Mode:         s.Mode,
		Samples:      samples,
		Calls:        calls,
		CtxtSwitches: switches,
		Overhead:     overhead,
		Shares:       shares(d.Trees, samples),
		Dump:         d,
	}
}

// stageReportFromDump rebuilds the derivable parts of a StageReport from
// a raw dump (mode and overheads are not recorded in dumps).
func stageReportFromDump(d StageDump) StageReport {
	sr := StageReport{Stage: d.Stage, Dump: d}
	for _, td := range d.Trees {
		sr.Samples += td.Total
	}
	sr.Shares = shares(d.Trees, sr.Samples)
	return sr
}

// shares is each context's share of a stage's samples, by descending
// samples, then label: the order of Profiler.Shares, for a report taken
// from a run and for one rebuilt from its dumps alike.
func shares(trees []TreeDump, samples int64) []ContextShare {
	if len(trees) == 0 {
		return nil // as a report read back without a shares field has it
	}
	out := make([]ContextShare, 0, len(trees))
	for _, td := range trees {
		share := 0.0
		if samples > 0 {
			share = float64(td.Total) / float64(samples)
		}
		out = append(out, ContextShare{Label: td.Label, Samples: td.Total, Share: share})
	}
	slices.SortFunc(out, func(a, b ContextShare) int {
		return cmp.Or(cmp.Compare(b.Samples, a.Samples), strings.Compare(a.Label, b.Label))
	})
	return out
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
	// BuildPartial keeps no dump, so up to eight stages' dump headers
	// are gathered on the stack.
	dumps := make([]StageDump, 0, 8)
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

// reportField is one top-level field of a report's JSON: its key, a
// pointer to its value, and whether JSON leaves it out (omitempty).
type reportField struct {
	key  string
	v    any
	omit bool
}

// fields lists the report's top-level fields in the order JSON writes
// them and ReadReport expects them.
func (r *Report) fields() [8]reportField {
	return [...]reportField{
		{"app", &r.App, false},
		{"elapsed_ns", &r.Elapsed, false},
		{"window", &r.Window, r.Window == nil},
		{"stages", &r.Stages, false},
		{"crosstalk", &r.Crosstalk, len(r.Crosstalk) == 0},
		{"flows", &r.Flows, len(r.Flows) == 0},
		{"faults", &r.Faults, r.Faults == nil},
		{"missing", &r.Missing, len(r.Missing) == 0},
	}
}

// JSON writes the report as indented JSON: the same bytes as a
// json.Encoder with SetIndent("", "  "), final newline included. The
// stitched graph is derived data and is omitted; ReadReport rebuilds it.
//
// The whole document is never held in memory. encoding/json encodes each
// field but the flow log, one field at a time, before anything is
// written, so an encoding error writes nothing. The flow log, which §3's
// flow detection makes the bulk of a large report, is then written flow
// by flow, each flow formatted in place in the free space of a buffer of
// a few KB.
func (r *Report) JSON(w io.Writer) error {
	fields := r.fields()
	var vals [len(fields)][]byte
	for i, f := range fields {
		if _, flows := f.v.(*[]FlowEvent); flows || f.omit {
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
	sep := "{\n  \""
	for i, f := range fields {
		if f.omit {
			continue
		}
		bw.WriteString(sep)
		bw.WriteString(f.key)
		bw.WriteString(`": `)
		sep = ",\n  \""
		flows, ok := f.v.(*[]FlowEvent)
		if !ok {
			bw.Write(vals[i])
			continue
		}
		bw.WriteString("[\n")
		for j, fe := range *flows {
			// Each flow is formatted in the writer's buffer, flushed first
			// if the longest flow would not fit.
			if bw.Available() < len(",\n")+maxFlowText && bw.Flush() != nil {
				break
			}
			b := bw.AvailableBuffer()
			if j > 0 {
				b = append(b, ",\n"...)
			}
			bw.Write(appendFlow(b, fe))
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
// writer, and the size of ReadReport's read buffer.
const jsonChunk = 8 << 10

// FlowEvent's JSON layout at depth two of a report: the text before each
// of its seven integers, in the order appendFlow writes them, then the
// text that closes the element.
const (
	flowProducer = "    {\n      \"Producer\": "
	flowConsumer = ",\n      \"Consumer\": "
	flowToken    = ",\n      \"Token\": "
	flowLock     = ",\n      \"Lock\": "
	flowKind     = ",\n      \"Loc\": {\n        \"Kind\": "
	flowAddr     = ",\n        \"Addr\": "
	flowThread   = ",\n        \"Thread\": "
	flowEnd      = "\n      }\n    }"
)

// flowText is the layout's text, in order, for readFlow.
var flowText = [8]string{flowProducer, flowConsumer, flowToken, flowLock, flowKind, flowAddr, flowThread, flowEnd}

// flowArrays is the layout's text as arrays, for appendFlow: an array
// is copied into place by a few moves, a string appended by a call.
var flowArrays = struct {
	producer [len(flowProducer)]byte
	consumer [len(flowConsumer)]byte
	token    [len(flowToken)]byte
	lock     [len(flowLock)]byte
	kind     [len(flowKind)]byte
	addr     [len(flowAddr)]byte
	thread   [len(flowThread)]byte
	end      [len(flowEnd)]byte
}{
	[len(flowProducer)]byte([]byte(flowProducer)),
	[len(flowConsumer)]byte([]byte(flowConsumer)),
	[len(flowToken)]byte([]byte(flowToken)),
	[len(flowLock)]byte([]byte(flowLock)),
	[len(flowKind)]byte([]byte(flowKind)),
	[len(flowAddr)]byte([]byte(flowAddr)),
	[len(flowThread)]byte([]byte(flowThread)),
	[len(flowEnd)]byte([]byte(flowEnd)),
}

// maxFlowText is the length of the longest element appendFlow writes:
// the layout's text and seven integers at their longest.
const maxFlowText = len(flowProducer+flowConsumer+flowToken+flowLock+flowKind+flowAddr+flowThread+flowEnd) +
	4*len("-2147483648") + 2*len("4294967295") + len("255")

// appendFlow appends one flow-log element as encoding/json indents it at
// depth two of a report. It and readFlow, its inverse, are the one place
// FlowEvent's JSON layout is written and read; a flow log in any other
// layout is read by encoding/json (see ReadReport).
//
// It makes room for the longest element once, then writes the element
// in place: each piece of text as an array, each integer by putInt.
func appendFlow(b []byte, f FlowEvent) []byte {
	b = slices.Grow(b, maxFlowText)
	t, n := b[:cap(b)], len(b)
	*(*[len(flowProducer)]byte)(t[n:]) = flowArrays.producer
	n = putInt(t, n+len(flowProducer), int64(f.Producer))
	*(*[len(flowConsumer)]byte)(t[n:]) = flowArrays.consumer
	n = putInt(t, n+len(flowConsumer), int64(f.Consumer))
	*(*[len(flowToken)]byte)(t[n:]) = flowArrays.token
	n = putInt(t, n+len(flowToken), int64(f.Token))
	*(*[len(flowLock)]byte)(t[n:]) = flowArrays.lock
	n = putInt(t, n+len(flowLock), int64(f.Lock))
	*(*[len(flowKind)]byte)(t[n:]) = flowArrays.kind
	n = putInt(t, n+len(flowKind), int64(f.Loc.Kind))
	*(*[len(flowAddr)]byte)(t[n:]) = flowArrays.addr
	n = putInt(t, n+len(flowAddr), int64(f.Loc.Addr))
	*(*[len(flowThread)]byte)(t[n:]) = flowArrays.thread
	n = putInt(t, n+len(flowThread), int64(f.Loc.Thread))
	*(*[len(flowEnd)]byte)(t[n:]) = flowArrays.end
	return t[:n+len(flowEnd)]
}

// putInt writes i in decimal at t[n:], which has room for it, as
// strconv.AppendInt(t[:n], i, 10) does, and returns where it ends. It
// writes the ids of a flow log, below a million, digit by digit from
// the last, and leaves any other value to strconv.
func putInt(t []byte, n int, i int64) int {
	if uint64(i) >= 1e6 {
		return len(strconv.AppendInt(t[:n], i, 10))
	}
	u, end := uint32(i), n+1
	switch {
	case u >= 1e5:
		end += 5
	case u >= 1e4:
		end += 4
	case u >= 1e3:
		end += 3
	case u >= 100:
		end += 2
	case u >= 10:
		end++
	}
	for k := end - 1; k > n; k-- {
		t[k] = byte('0' + u%10)
		u /= 10
	}
	t[n] = byte('0' + u)
	return end
}

// readFlow reads one flow-log element at the start of b, exactly as
// appendFlow writes it, and returns it with its length in bytes. It
// accepts only appendFlow's bytes: each integer in range and written as
// strconv writes it (no "+", no leading zero, no "-0"). For anything
// else ok is false and n is where reading stopped: len(b) if b ended
// before the element could be told apart from one.
func readFlow(b []byte) (f FlowEvent, n int, ok bool) {
	var v [len(flowMax)]int64
	for i, limit := range flowMax {
		t := flowText[i]
		if len(b)-n < len(t) || string(b[n:n+len(t)]) != t {
			return f, litEnd(b, n, t), false
		}
		n += len(t)
		// A magnitude: "0", or up to 19 digits without a leading zero,
		// which fit in a uint64; negative only where the limit is
		// MaxInt32.
		neg := limit == math.MaxInt32 && n < len(b) && b[n] == '-'
		if neg {
			n++
			limit++
		}
		start := n
		var u uint64
		for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
			if n-start == 19 {
				return f, n, false
			}
			u = u*10 + uint64(b[n]-'0')
		}
		if d := n - start; d == 0 || d > 1 && b[start] == '0' || u > limit || neg && u == 0 {
			return f, n, false
		}
		v[i] = int64(u)
		if neg {
			v[i] = -v[i]
		}
	}
	t := flowText[len(v)]
	if len(b)-n < len(t) || string(b[n:n+len(t)]) != t {
		return f, litEnd(b, n, t), false
	}
	f = FlowEvent{
		Producer: int32(v[0]), Consumer: int32(v[1]), Token: FlowToken(v[2]), Lock: int32(v[3]),
		Loc: vm.Loc{Kind: vm.LocKind(v[4]), Addr: uint32(v[5]), Thread: int32(v[6])},
	}
	return f, n + len(t), true
}

// flowMax is the largest magnitude of each integer readFlow reads, in
// appendFlow's order; the int32 ids, whose maximum is MaxInt32, may be
// negative.
var flowMax = [7]uint64{
	math.MaxInt32, math.MaxInt32, math.MaxUint32, math.MaxInt32, math.MaxUint8, math.MaxUint32, math.MaxInt32,
}

// litEnd is where readFlow stopped when b[n:] does not start with the
// text t: len(b) if b ends inside t, else n.
func litEnd(b []byte, n int, t string) int {
	if strings.HasPrefix(t, string(b[n:])) {
		return len(b)
	}
	return n
}

// ReadReport decodes a JSON report and restitches its transaction graph.
// It decodes whatever encoding/json would decode into a Report, to the
// same report, and fails with encoding/json's error.
//
// It mirrors JSON: it walks the document as JSON lays it out, decodes
// each field but the flow log with encoding/json, one field at a time,
// and the flow log with readFlow. At the first byte JSON would not have
// written there, it hands the whole input to a json.Decoder: the bytes
// read so far (the flows read re-encoded by appendFlow), then the rest.
// Like the decoder, it reads no further than the report's closing "}".
func ReadReport(rd io.Reader) (*Report, error) {
	d := reportReader{br: bufio.NewReaderSize(rd, jsonChunk), text: make([]byte, 0, jsonChunk)}
	r := d.read()
	if r == nil {
		r = new(Report)
		if err := json.NewDecoder(d.replay()).Decode(r); err != nil {
			return nil, fmt.Errorf("whodunit: decode report: %w", err)
		}
	}
	r.restitch()
	return r, nil
}

// reportReader reads a report in JSON's layout and keeps what it read,
// for replay.
type reportReader struct {
	br     *bufio.Reader
	text   []byte // the bytes read but the flow log's elements
	flowAt int    // where in text the flow log's elements were
	// The flow log's elements read, in blocks of at most flowBlock. The
	// log is copied into one slice of its length at its end, so reading
	// it allocates about twice what it holds, where append's growth
	// would allocate five times.
	blocks [][]FlowEvent
	nflows int
}

// flowBlock is the most flows one of reportReader's blocks holds.
const flowBlock = 4096

// read returns the report, or nil at the first byte that JSON would not
// have written.
func (d *reportReader) read() *Report {
	r := new(Report)
	fields := r.fields()
	if !d.lit("{\n") {
		return nil
	}
	for i := 0; ; i++ {
		// A key: a field after the one read last, so none twice.
		for i < len(fields) && !d.lit(`  "`+fields[i].key+`": `) {
			i++
		}
		if i == len(fields) {
			return nil
		}
		var comma, ok bool
		if flows, isFlows := fields[i].v.(*[]FlowEvent); isFlows {
			comma, ok = d.flowLog()
			*flows = slices.Concat(d.blocks...)
		} else {
			var v []byte
			v, comma, ok = d.value()
			ok = ok && json.Unmarshal(v, fields[i].v) == nil
		}
		if !ok {
			return nil
		}
		// Another key follows a comma, the end of the report a value
		// without one.
		key, end := d.fieldEnd()
		switch {
		case comma && key:
		case !comma && end:
			return r
		default:
			return nil
		}
	}
}

// has reports whether the input starts with s. It reads no further
// than the first byte that differs.
func (d *reportReader) has(s string) bool {
	for {
		b, _ := d.br.Peek(min(len(s), d.br.Buffered()))
		if string(b) != s[:len(b)] {
			return false
		}
		if len(b) == len(s) {
			return true
		}
		if more, _ := d.br.Peek(len(b) + 1); len(more) == len(b) {
			return false
		}
	}
}

// lit reads s if the input starts with it.
func (d *reportReader) lit(s string) bool {
	if !d.has(s) {
		return false
	}
	d.text = append(d.text, s...)
	d.br.Discard(len(s))
	return true
}

// fieldEnd reports whether the next line starts a key or ends the
// report: in JSON's layout a newline inside a field's value is followed
// by four spaces, or by two and the value's closing bracket.
func (d *reportReader) fieldEnd() (key, end bool) {
	if d.has("}") {
		return false, true
	}
	return d.has(`  "`), false
}

// value reads a field's value, up to the first newline at fieldEnd, and
// returns it without that newline and the comma, if any, before it.
func (d *reportReader) value() (v []byte, comma, ok bool) {
	start := len(d.text)
	for {
		b, _ := d.br.Peek(d.br.Buffered())
		n := len(b) // what to read of b if no newline in it is at fieldEnd
		for i := 0; ; i++ {
			j := bytes.IndexByte(b[i:], '\n')
			if j < 0 {
				break
			}
			i += j
			next := b[i+1:]
			if len(next) > 0 && next[0] == '}' || len(next) >= 3 && string(next[:3]) == `  "` {
				d.text = append(d.text, b[:i+1]...)
				d.br.Discard(i + 1)
				v, comma = bytes.CutSuffix(d.text[start:len(d.text)-1], []byte(","))
				return v, comma, true
			}
			if len(next) < 3 && strings.HasPrefix(`  "`, string(next)) {
				n = i // b ends too soon to tell: leave the newline unread
				break
			}
		}
		d.text = append(d.text, b[:n]...)
		d.br.Discard(n)
		if more, _ := d.br.Peek(len(b) - n + 1); len(more) == len(b)-n {
			return nil, false, false
		}
	}
}

// flowLog reads the flow log from its "[" to the end of its closing
// line, every element with readFlow. It reads every element the buffer
// holds whole in one pass over the buffer; only the element the
// buffer's end cuts is read by flow, which refills the buffer.
func (d *reportReader) flowLog() (comma, ok bool) {
	if !d.lit("[\n") {
		return false, false
	}
	d.flowAt = len(d.text)
	sep := ""
	for {
		b, _ := d.br.Peek(d.br.Buffered())
		n := 0
		for len(b)-n >= len(sep) && string(b[n:n+len(sep)]) == sep {
			f, m, ok := readFlow(b[n+len(sep):])
			if !ok {
				break
			}
			d.add(f)
			n += len(sep) + m
			sep = ",\n"
		}
		d.br.Discard(n)
		if !d.has(sep) {
			break
		}
		f, m, ok := d.flow(len(sep))
		if !ok {
			break
		}
		d.add(f)
		d.br.Discard(len(sep) + m)
		sep = ",\n"
	}
	if d.nflows == 0 || !d.lit("\n  ]") {
		return false, false
	}
	if d.lit(",\n") {
		return true, true
	}
	return false, d.lit("\n")
}

// add appends f to the flow log read.
func (d *reportReader) add(f FlowEvent) {
	if k := len(d.blocks); k == 0 || len(d.blocks[k-1]) == cap(d.blocks[k-1]) {
		d.blocks = append(d.blocks, make([]FlowEvent, 0, min(max(d.nflows, 64), flowBlock)))
	}
	last := &d.blocks[len(d.blocks)-1]
	*last = append(*last, f)
	d.nflows++
}

// flow reads the element that starts off bytes into the buffered input,
// reading more input only while the bytes buffered end inside what could
// be one.
func (d *reportReader) flow(off int) (FlowEvent, int, bool) {
	for {
		b, _ := d.br.Peek(min(off+maxFlowText, d.br.Buffered()))
		f, n, ok := readFlow(b[off:])
		if ok || off+n < len(b) || len(b) == off+maxFlowText {
			return f, n, ok
		}
		if more, _ := d.br.Peek(len(b) + 1); len(more) == len(b) {
			return f, n, false
		}
	}
}

// replay returns the input: what was read, then the rest.
func (d *reportReader) replay() io.Reader {
	b := append([]byte(nil), d.text[:d.flowAt]...)
	sep := ""
	for _, block := range d.blocks {
		for _, f := range block {
			b = appendFlow(append(b, sep...), f)
			sep = ",\n"
		}
	}
	b = append(b, d.text[d.flowAt:]...)
	return io.MultiReader(bytes.NewReader(b), d.br)
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
