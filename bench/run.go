package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"whodunit"
)

// runOpts selects one measurement of one workload.
type runOpts struct {
	seed    uint64
	scale   float64
	seconds float64 // measurement budget: timed repetitions, analyze passes and calibration
	reps    int     // >0: exactly this many timed repetitions, whatever they take
	setups  int     // how many times set-up is performed and timed (>= 2)
	// After every timed repetition the analyze passes run in batches of
	// about analyzeBatch each.
	analyzeBatch time.Duration
	expected     expectedFile
}

const (
	minTimedReps = 3
	slotBatches  = 3
)

// result is everything one invocation measured on one workload.
type result struct {
	Workload string  `json:"workload"`
	Op       string  `json:"op"`
	Load     string  `json:"load"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`

	// Ops is the operation count of one repetition; Attempted and Failed
	// are summed over the timed repetitions.
	Ops       int64 `json:"ops"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Correct   bool  `json:"correct"`
	// Problems lists every failed check, in the order found.
	Problems []string `json:"problems,omitempty"`

	Digest string   `json:"digest"`
	Sim    simStats `json:"sim"`
	Host   hostInfo `json:"host"`

	EndToEnd map[string]stat `json:"end_to_end,omitempty"`
	// AsMeasured holds the time metrics of EndToEnd before they were
	// scaled to the reference host (by calibRefNS / Host.CalibNS).
	AsMeasured map[string]stat `json:"as_measured,omitempty"`
	PerLayer   map[string]stat `json:"per_layer,omitempty"`
	Spans      []span          `json:"spans,omitempty"`
}

func (r *result) problem(format string, a ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// checker holds what every repetition of one invocation must reproduce:
// the digest and simulated statistics of the first run, and at the
// pinned seed and scale those of expected.json as well.
type checker struct {
	res    *result
	pinned *expectedEntry
}

func newChecker(res *result, o runOpts) *checker {
	c := &checker{res: res}
	if e, ok := o.expected.lookup(res.Workload, o.seed, o.scale); ok {
		c.pinned = &e
	}
	return c
}

// check compares one repetition with the reference and reports whether
// it matched; a mismatch fails every operation of the repetition.
func (c *checker) check(what string, o *outcome) bool {
	d := o.digest()
	if c.res.Digest == "" {
		c.res.Digest, c.res.Sim, c.res.Ops = d, o.sim, o.ops
		if c.pinned != nil && (c.pinned.Digest != d || c.pinned.Sim != o.sim) {
			c.res.problem("%s: digest %.12s sim %+v differ from expected.json (%.12s %+v)",
				what, d, o.sim, c.pinned.Digest, c.pinned.Sim)
			return false
		}
		return true
	}
	if d != c.res.Digest || o.sim != c.res.Sim {
		c.res.problem("%s: digest %.12s sim %+v differ from the first run (%.12s %+v)",
			what, d, o.sim, c.res.Digest, c.res.Sim)
		return false
	}
	return true
}

// account adds one timed repetition to the attempted/failed totals.
func (c *checker) account(o *outcome, matched bool) {
	c.res.Attempted += o.injected
	if !matched {
		c.res.Failed += o.injected
	} else if o.injected > o.ops {
		c.res.Failed += o.injected - o.ops
	}
}

// prepared is a workload after set-up: inputs generated, caches warm,
// and the report the analyze pass diffs against in hand.
type prepared struct {
	in     any
	warm   *outcome
	other  *whodunit.Report // same config at seed+1
	setupS []float64        // as measured
}

// prepare performs set-up o.setups times, at seeds seed+k down to seed,
// and times each: input generation plus one untimed-for-op_ns warm-up
// repetition, with a calibration reading before and after. Repeating it
// gives setup_s a median instead of a single reading, and the seed+1
// pass yields the report the analyze pass needs for free. The last pass
// is at the requested seed, so the timed repetitions start right after
// their own warm-up.
func prepare(w workloadDef, o runOpts, chk *checker, h *host) prepared {
	var p prepared
	h.calibrate()
	for k := o.setups - 1; k >= 0; k-- {
		var in any
		var out *outcome
		d := timed(func() {
			in = w.gen(o.seed+uint64(k), o.scale)
			out = w.run(in)
		})
		h.calibrate()
		p.setupS = append(p.setupS, d.wallNS/1e9)
		switch k {
		case 1:
			p.other = out.final()
		case 0:
			p.in, p.warm = in, out
		}
	}
	chk.check("warm-up", p.warm)
	if w.ref != nil {
		chk.check("reference layout", w.ref(p.in))
	}
	return p
}

// measure runs the untraced measurement of one workload: the numbers a
// user of the simulator sees. After set-up it fills the budget with
// slots, each a calibration reading, one timed repetition, another
// reading and a few batches of analyze passes on that repetition's
// reports, so that every metric is sampled over the whole run and the
// calibration readings cover it evenly. The time metrics are then scaled
// to the reference host.
func measure(w workloadDef, o runOpts) *result {
	res := newResult(w, o)
	chk := newChecker(res, o)
	h := &host{}
	p := prepare(w, o, chk, h)

	var opNS, cpuNS, allocs, allocBytes, analyzeMS []float64
	var rss float64
	passes := 0 // analyze passes per batch, sized in the first slot
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	cal := h.calibrate()
	for {
		n := len(opNS)
		inBudget := time.Since(start) < budget
		if o.reps > 0 {
			if n >= o.reps {
				break
			}
		} else if n >= minTimedReps && !inBudget {
			break
		}
		// A slot after a slow calibration reading is skipped — except
		// past the budget, where repetitions are taken as they come, so
		// a host that never calms down still ends the run.
		if !h.quiet(cal) && (o.reps > 0 || inBudget) {
			cal = h.calibrate()
			continue
		}
		var out *outcome
		d := timed(func() { out = w.run(p.in) })
		h.calibrate()
		chk.account(out, chk.check(fmt.Sprintf("repetition %d", n+1), out))
		ops := float64(out.ops)
		opNS = append(opNS, d.wallNS/ops)
		cpuNS = append(cpuNS, d.cpuNS/ops)
		allocs = append(allocs, d.allocs/ops)
		allocBytes = append(allocBytes, d.allocBytes/ops)
		if n == 0 {
			// Before the first analyze pass: the peak is the simulator's,
			// over the set-ups and one timed repetition.
			rss = peakRSSMB()
		}
		ms, err := analyzeSlot(o, out, p.other, &passes)
		if err != nil {
			res.problem("analyze pass: %v", err)
		}
		analyzeMS = append(analyzeMS, ms...)
		cal = h.calibrate()
	}

	res.Host.CalibNS, res.Host.CalibMinNS, res.Host.DiscardedReps = h.mean(), h.min, h.discarded
	res.AsMeasured = map[string]stat{
		"setup_s":       summarize("s", p.setupS),
		"op_ns":         summarize("ns/op", opNS),
		"cpu_ns_per_op": summarize("ns/op", cpuNS),
		"analyze_ms":    summarize("ms", analyzeMS),
	}
	res.EndToEnd = map[string]stat{
		"allocs_per_op":      summarize("1/op", allocs),
		"alloc_bytes_per_op": summarize("B/op", allocBytes),
		"peak_rss_mb":        single("MB", rss),
	}
	for name, s := range res.AsMeasured {
		res.EndToEnd[name] = s.times(h.scale())
	}
	return res
}

func newResult(w workloadDef, o runOpts) *result {
	return &result{
		Workload: w.name, Op: w.op, Load: w.load, Seed: o.seed, Scale: o.scale,
		Correct: true,
		Host: hostInfo{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			HostCPUs:   runtime.NumCPU(),
		},
	}
}

// analyzeSlot times the analyze passes that follow one timed repetition,
// on that repetition's reports, in up to slotBatches batches of about
// o.analyzeBatch each, and returns the time per pass of each batch in ms.
// A pass on a small report takes well under a millisecond and allocates,
// so single passes read either fast or slow depending on whether a
// collection was running; a batch long enough to contain its share of
// collections reads the same every time. A pass longer than the batch
// length is the slot's only batch. The first slot sizes the batches with
// one untimed pass and leaves the count in *passes.
func analyzeSlot(o runOpts, out *outcome, otherSeed *whodunit.Report, passes *int) ([]float64, error) {
	final, other := analysisPair(out, otherSeed)
	pass := func() error { return analyzePass(out, final, other, nil, 0) }
	runtime.GC()
	if *passes == 0 {
		start := time.Now()
		if err := pass(); err != nil {
			return nil, err
		}
		*passes = 1
		if first := time.Since(start); first < o.analyzeBatch {
			*passes = int(o.analyzeBatch/(first+1)) + 1
		}
	}
	batches := slotBatches
	if *passes == 1 {
		batches = 1
	}
	var ms []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < *passes; i++ {
			if err := pass(); err != nil {
				return ms, err
			}
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6/float64(*passes))
	}
	return ms, nil
}

// analysisPair picks the two reports of the post-mortem pass: the
// workload's final report and the one it is diffed against. A batch
// workload diffs against the same config at seed+1; the serve workload,
// whose run yields a sequence of windows, against the previous window.
func analysisPair(last *outcome, otherSeed *whodunit.Report) (final, other *whodunit.Report) {
	final = last.final()
	if n := len(last.reports); n >= 2 {
		return final, last.reports[n-2]
	}
	return final, otherSeed
}

// analyzePass is one post-mortem pass over a finished repetition: what
// a user does with the simulator's output once it is done — stitch the
// stage dumps into a report, write it, read it back, diff it against
// another run and render both. On the serve workload the retained
// windows are then read through the server's HTTP API as well. With a
// recorder the pass is also the traced run's tail: each step becomes a
// child span of parent.
func analyzePass(o *outcome, final, other *whodunit.Report, rec *recorder, parent int) error {
	var err error
	var buf bytes.Buffer
	var stitched, decoded *whodunit.Report
	var diff *whodunit.ReportDiff
	rec.do("stitch", parent, func() {
		dumps := make([]whodunit.StageDump, len(final.Stages))
		for i := range final.Stages {
			dumps[i] = final.Stages[i].Dump
		}
		stitched = whodunit.ReportFromDumps(final.App, dumps...)
	})
	if len(stitched.Graph.Edges) != len(final.Graph.Edges) {
		return fmt.Errorf("restitched graph has %d edges, the run's report %d",
			len(stitched.Graph.Edges), len(final.Graph.Edges))
	}
	rec.do("encode", parent, func() { err = final.JSON(&buf) })
	if err != nil {
		return err
	}
	rec.do("decode", parent, func() { decoded, err = whodunit.ReadReport(&buf) })
	if err != nil {
		return err
	}
	rec.do("diff", parent, func() { diff = whodunit.Diff(decoded, other) })
	rec.do("render", parent, func() {
		decoded.Text(io.Discard)
		decoded.Folded(io.Discard)
		diff.Text(io.Discard)
	})
	if o.server != nil {
		return servePass(o.server, rec, parent)
	}
	return nil
}

// servePass reads every retained window and every adjacent-window diff
// through the server's HTTP API, in-process.
func servePass(srv *whodunit.Server, rec *recorder, parent int) error {
	h := srv.Handler()
	get := func(span, url string) error {
		var code int
		rec.do(span, parent, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
			code = w.Code
		})
		if code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", url, code)
		}
		return nil
	}
	prev := int64(-1)
	for _, kv := range srv.Ring().Entries() {
		seq := kv.Meta.Seq
		if err := get("http.report", fmt.Sprintf("/report?window=%d&format=json", seq)); err != nil {
			return err
		}
		if prev >= 0 {
			if err := get("http.diff", fmt.Sprintf("/diff?a=%d&b=%d", prev, seq)); err != nil {
				return err
			}
		}
		prev = seq
	}
	return nil
}
