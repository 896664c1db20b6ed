package meshkv

import (
	"bytes"
	"fmt"
	"testing"

	"whodunit"
	"whodunit/internal/trace"
)

func replicatedTestConfig(replicas int, deep, sharded bool) Config {
	g := trace.CacheTrace()
	g.Events = 600
	g.Seed = 11
	cfg := DefaultConfig(trace.Gen(g))
	cfg.Name = "meshkv-mega"
	cfg.Shards = 2
	cfg.Replicas = replicas
	cfg.Deep = deep
	cfg.Sharded = sharded
	return cfg
}

// TestMeshMegaSerialShardedIdentity: the replicated mesh produces
// bit-identical reports and counters on one time domain and on one
// domain per pod, with standard and with deep pods.
func TestMeshMegaSerialShardedIdentity(t *testing.T) {
	for _, tc := range []struct {
		replicas int
		deep     bool
	}{{1, false}, {4, false}, {3, true}} {
		label := fmt.Sprintf("replicas=%d deep=%v", tc.replicas, tc.deep)
		serial := Run(replicatedTestConfig(tc.replicas, tc.deep, false))
		sharded := Run(replicatedTestConfig(tc.replicas, tc.deep, true))
		if sharded.Epochs.Active <= serial.Epochs.Active {
			t.Errorf("%s: %d domain activations sharded, %d serial: the sharded run did not spread over domains",
				label, sharded.Epochs.Active, serial.Epochs.Active)
		}
		if serial.Completed == 0 || serial.Completed != serial.Injected {
			t.Fatalf("%s: completed %d of %d injected", label, serial.Completed, serial.Injected)
		}
		if serial.Completed != sharded.Completed || serial.Hits != sharded.Hits ||
			serial.Misses != sharded.Misses || serial.Gets != sharded.Gets ||
			serial.Sets != sharded.Sets || serial.Elapsed != sharded.Elapsed {
			t.Errorf("%s: counters differ:\nserial  %+v\nsharded %+v", label, serial, sharded)
		}
		for r := range serial.ReplicaLoad {
			if serial.ReplicaLoad[r] != sharded.ReplicaLoad[r] {
				t.Errorf("%s: ReplicaLoad[%d] %d vs %d",
					label, r, serial.ReplicaLoad[r], sharded.ReplicaLoad[r])
			}
		}
		var a, b bytes.Buffer
		if err := serial.Report.JSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Report.JSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: report JSON differs between serial and sharded", label)
		}
		if d := whodunit.Diff(serial.Report, sharded.Report); !d.Empty() {
			t.Errorf("%s: diff not empty (max delta %d)", label, d.MaxDelta())
		}
	}
}
