package main

import (
	"time"
)

// span is one timed interval of the traced run. Spans are recorded from
// the benchmark's own files, around the calls into the program; spans
// inside the program are a later change.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root span
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the recorder was made
	EndNS    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// recorder keeps spans in memory; they are written out, if asked for,
// when the benchmark ends. A nil recorder records nothing, so the same
// code runs traced and untraced.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// do runs fn inside a span named name under parent and returns the
// span's id.
func (r *recorder) do(name string, parent int, fn func()) int {
	if r == nil {
		fn()
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Name: name})
	start := time.Since(r.t0)
	fn()
	s := &r.spans[id-1]
	s.StartNS, s.EndNS = start.Nanoseconds(), time.Since(r.t0).Nanoseconds()
	return id
}

// childMS sums the duration of parent's direct children named name.
func (r *recorder) childMS(parent int, name string) float64 {
	var ms float64
	for _, s := range r.spans {
		if s.Parent == parent && s.Name == name {
			ms += s.ms()
		}
	}
	return ms
}

// traceSpans are the children every "workload" root span has, in the
// order they run; each is reported as span.<name>_ms.
var traceSpans = []string{"gen", "run", "stitch", "encode", "decode", "diff", "render"}

// traced runs the per-layer measurement of one workload: repetitions
// with the span recorder on, interleaved with untraced ones so the cost
// of tracing itself is a measured number, joined with the layer
// drivers' results (which do not depend on the workload).
func traced(w workloadDef, o runOpts, layers map[string]stat) *result {
	res := newResult(w, o)
	chk := newChecker(res, o)
	o.setups = 2 // setup_s is the untraced run's metric; two passes yield the seed+1 report
	p := prepare(w, o, chk, nil)
	rec := newRecorder(w.name)

	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var tracedNS, plainNS []float64
	var last *outcome
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	plainRep := func() {
		// Fresh inputs, as the traced side has: the two sides differ
		// in the recorder only.
		in := w.gen(o.seed, o.scale)
		var out *outcome
		d := timed(func() { out = w.run(in) })
		chk.account(out, chk.check("untraced repetition", out))
		plainNS = append(plainNS, d.wallNS/float64(out.ops))
	}
	tracedRep := func() {
		var out *outcome
		var run delta
		root := rec.do("workload", 0, func() {
			root := len(rec.spans) // the id of the span this function runs in
			var in any
			rec.do("gen", root, func() { in = w.gen(o.seed, o.scale) })
			rec.do("run", root, func() { run = timed(func() { out = w.run(in) }) })
			chk.account(out, chk.check("traced repetition", out))
			final, other := analysisPair(out, p.other)
			if err := analyzePass(out, final, other, rec, root); err != nil {
				res.problem("traced analyze pass: %v", err)
			}
		})
		for _, name := range traceSpans {
			add("span."+name+"_ms", rec.childMS(root, name))
		}
		tracedNS = append(tracedNS, run.wallNS/float64(out.ops))
		add("runtime.gc_cpu_frac", run.gcCPUFrac)
		add("runtime.gc_cycles", run.gcCycles)
		last = out
	}
	for n := 0; ; n++ {
		if o.reps > 0 && n >= o.reps {
			break
		}
		if o.reps == 0 && n >= 2 && time.Since(start) >= budget {
			break
		}
		// Alternate which side goes first, so neither always runs on the
		// heap the other left behind.
		if n%2 == 0 {
			plainRep()
			tracedRep()
		} else {
			tracedRep()
			plainRep()
		}
	}

	res.PerLayer = map[string]stat{}
	for name, v := range samples {
		res.PerLayer[name] = summarize(metricUnit(name), v)
	}
	counts := last.counts()
	for name, v := range counts {
		res.PerLayer[name] = single("count", float64(v))
	}
	// The fastest reading of each side is the one the host disturbed
	// least; with a handful of repetitions a median would mostly
	// report host noise.
	plainOp := summarize("ns/op", plainNS).Min
	overhead := (summarize("ns/op", tracedNS).Min - plainOp) / plainOp
	res.PerLayer["trace_overhead_frac"] = single("frac", overhead)

	for name, st := range layers {
		res.PerLayer[name] = st
	}
	runMS := res.PerLayer["span.run_ms"].Median
	res.PerLayer["explained_frac"] = single("frac", explainedNS(counts, layers)/(runMS*1e6))
	res.Spans = rec.spans
	return res
}

// explainedNS is the part of a run's host time the layer metrics can
// account for: each work count the run exports times the cost of the
// layer operation that does that work. It is a floor, not a model —
// thread switches, heap operations and epochs are not counted by the
// kernel yet, so most of a run stays unexplained.
func explainedNS(counts map[string]int64, layers map[string]stat) float64 {
	term := func(count, metric string, scale float64) float64 {
		return float64(counts[count]) * layers[metric].Median * scale
	}
	return term("count.samples", "cct.add_samples_ns", 1) +
		term("count.calls", "profiler.enter_exit_ns", 1) +
		term("count.ctxt_switches", "profiler.settxn_ns", 1) +
		term("count.flows", "shmflow.pushpop_ns", 1) +
		term("count.windows", "profiler.retire_us", 1e3) +
		term("count.windows", "stitch.build_us", 1e3)
}
