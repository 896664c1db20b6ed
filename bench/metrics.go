package main

import "strings"

// metricDef names one metric. The tables below are the single source of
// the names, units and bounds: BENCHMARK.json repeats them (the test
// checks the two agree) and -compare judges with them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the simulator sees, each reported
// per workload. Bound is the share of the baseline's median by which
// the metric may get worse before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ns", "ns/op", "lower", 0.25},
	{"cpu_ns_per_op", "ns/op", "lower", 0.25},
	{"allocs_per_op", "1/op", "lower", 0.20},
	{"alloc_bytes_per_op", "B/op", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"analyze_ms", "ms", "lower", 0.25},
}

// perLayer are the metrics of single layers (this repo's packages),
// measured by the traced run. They carry no bound: they explain an
// end-to-end movement, they do not gate.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, name := range strings.Fields(`
		vclock.switch_goroutine_ns vclock.switch_allocs vclock.switch_coro_ns
		vclock.sleep_deep_ns vclock.compute_ns vclock.lock_handoff_ns vclock.spawn_ns
		vclock.thread_bytes_goroutine vclock.thread_bytes_coro
		vclock.epoch_ns vclock.xmsg_ns
		par.do_ns
		vm.step_direct_ns vm.step_emulated_ns vm.run_single_ns
		shmflow.pushpop_ns shmflow.pushpop_allocs shmflow.pushpop_native_ns
		profiler.compute_off_ns profiler.compute_whodunit_ns profiler.compute_gprof_ns
		profiler.enter_exit_ns profiler.settxn_ns profiler.snapshot_us profiler.retire_us
		cct.add_samples_ns cct.insert_ns cct.merge_us cct.flatten_us
		tranctx.extend_ns
		ipc.sendrecv_ns ipc.sendrecv_allocs
		event.dispatch_ns seda.hop_ns
		minidb.lookup_ns minidb.scan_sort_us
		crosstalk.acquire_ns
		mesh.hop_ns
		stitch.build_us stitch.dump_stream_us
		window.append_ns
		trace.gen_ns trace.read_ns workload.genweb_ns
		whodunit.report_json_us whodunit.report_read_us whodunit.diff_us whodunit.folded_us
		whodunit.http_report_us whodunit.http_report_p90_us whodunit.http_diff_us
		span.gen_ms span.run_ms span.stitch_ms span.encode_ms span.decode_ms span.diff_ms span.render_ms
		count.samples count.calls count.ctxt_switches count.edges count.flows count.emu_cycles count.windows
		runtime.gc_cpu_frac runtime.gc_cycles
		trace_overhead_frac explained_frac`) {
		defs = append(defs, metricDef{Name: name, Unit: metricUnit(name), Better: metricBetter(name)})
	}
	return defs
}()

// metricUnit derives a per-layer metric's unit from its name.
func metricUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "count."), name == "runtime.gc_cycles":
		return "count"
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	case strings.HasSuffix(name, "_allocs"):
		return "1/op"
	case strings.Contains(name, "thread_bytes_"):
		return "B"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	default:
		return "ns"
	}
}

// metricBetter is the direction of a per-layer metric. Counts of work
// done have no good direction of their own and are listed as "lower";
// explained_frac is a coverage figure.
func metricBetter(name string) string {
	if name == "explained_frac" {
		return "higher"
	}
	return "lower"
}
