package apacheweb

import (
	"testing"

	"whodunit/internal/profiler"
	"whodunit/internal/workload"
)

func smallTrace() *workload.WebTrace {
	cfg := workload.DefaultWebConfig()
	cfg.NumConns = 150
	cfg.NumFiles = 200
	cfg.MinSize = 8 << 10 // keep sendfile hot enough to catch samples
	return workload.GenWeb(cfg)
}

func TestRunServesWholeTrace(t *testing.T) {
	tr := smallTrace()
	res := Run(DefaultConfig(tr))
	if res.Conns != int64(len(tr.Conns)) {
		t.Fatalf("served %d conns, want %d", res.Conns, len(tr.Conns))
	}
	if res.BytesSent != tr.TotalBytes {
		t.Fatalf("bytes = %d, want %d", res.BytesSent, tr.TotalBytes)
	}
	if res.ThroughputMbps <= 0 {
		t.Fatalf("throughput = %v", res.ThroughputMbps)
	}
}

func TestFlowDetectedListenerToWorkers(t *testing.T) {
	res := Run(DefaultConfig(smallTrace()))
	if len(res.Flows) == 0 {
		t.Fatal("no shared-memory flows detected")
	}
	producers := map[int32]bool{}
	for _, f := range res.Flows {
		producers[f.Producer] = true
		if f.Lock != 1 {
			t.Fatalf("flow under unexpected lock: %v", f)
		}
	}
}

func TestWorkerSamplesAnnotatedWithListenerContext(t *testing.T) {
	// §8.1 / Figure 8: worker CPU (ap_process_connection, sendfile) must
	// be attributed to the transaction context established by the
	// listener's call path.
	res := Run(DefaultConfig(smallTrace()))
	var found bool
	for _, e := range res.Profiler.Entries() {
		if e.Ctxt.Local.IsRoot() {
			continue
		}
		if _, ok := e.Tree.Find("worker_thread", "ap_process_connection"); ok &&
			e.Ctxt.Local.Last().Label == "listener_thread>apr_socket_accept" {
			found = true
			if _, ok := e.Tree.Find("worker_thread", "ap_process_connection", "sendfile"); !ok {
				t.Fatal("sendfile frame missing under worker context")
			}
		}
	}
	if !found {
		t.Fatalf("no worker tree annotated with listener context; trees: %v",
			len(res.Profiler.Entries()))
	}
}

func TestProcessConnectionDominatesProfile(t *testing.T) {
	// Figure 8's shape: serving (ap_process_connection+sendfile) is much
	// hotter than the accept path.
	res := Run(DefaultConfig(smallTrace()))
	m := res.Profiler.Merged()
	serve, ok := m.Find("worker_thread", "ap_process_connection")
	if !ok {
		t.Fatal("no serve samples")
	}
	if accept, _ := m.Find("listener_thread", "apr_socket_accept"); accept.Inclusive > serve.Inclusive {
		t.Fatalf("accept %d >= serve %d; profile shape wrong",
			accept.Inclusive, serve.Inclusive)
	}
}

func TestWhodunitOverheadSmall(t *testing.T) {
	// §9.2: Whodunit (emulated critical sections + sampling) costs only a
	// few percent of throughput versus unprofiled direct execution.
	tr := smallTrace()
	base := DefaultConfig(tr)
	base.Mode = profiler.ModeOff
	off := Run(base)

	who := DefaultConfig(tr)
	on := Run(who)

	if on.EmulationCycles == 0 {
		t.Fatal("whodunit mode did not emulate any critical section")
	}
	overhead := (off.ThroughputMbps - on.ThroughputMbps) / off.ThroughputMbps
	if overhead < 0 {
		t.Fatalf("profiled run faster than baseline: %v vs %v", on.ThroughputMbps, off.ThroughputMbps)
	}
	if overhead > 0.15 {
		t.Fatalf("whodunit overhead %.1f%% too large", 100*overhead)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(DefaultConfig(smallTrace()))
	b := Run(DefaultConfig(smallTrace()))
	if a.Elapsed != b.Elapsed || a.BytesSent != b.BytesSent ||
		a.Profiler.TotalSamples() != b.Profiler.TotalSamples() {
		t.Fatalf("runs diverged: %+v vs %+v", a.Elapsed, b.Elapsed)
	}
}
