package tpcw

import (
	"bytes"
	"testing"

	"whodunit"
	"whodunit/internal/minidb"
)

func replicatedTestConfig(clients, replicas int, sharded bool) Config {
	cfg := DefaultConfig(clients)
	cfg.Replicas = replicas
	cfg.Sharded = sharded
	cfg.Duration = 4 * whodunit.Second
	cfg.ThinkMean = 250 * whodunit.Millisecond
	cfg.TomcatWorkers = 4
	cfg.SquidWorkers = 2
	cfg.DBWorkers = 3
	return cfg
}

// TestMegaSerialShardedIdentity pins the acceptance invariant on the
// real app model: the replicated TPC-W deployment produces bit-identical
// reports and client metrics whether it runs on one time domain or on
// one domain per pod — also with the servlet caches on and with the
// item table on InnoDB row locks.
func TestMegaSerialShardedIdentity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		tweak    func(*Config)
	}{
		{"replicas=1", 1, func(*Config) {}},
		{"replicas=3", 3, func(*Config) {}},
		{"replicas=3 caching", 3, func(c *Config) { c.ServletCaching = true }},
		{"replicas=3 innodb", 3, func(c *Config) { c.ItemEngine = minidb.EngineInnoDB }},
	} {
		run := func(sharded bool) *Result {
			cfg := replicatedTestConfig(24, tc.replicas, sharded)
			tc.tweak(&cfg)
			return Run(cfg)
		}
		serial, sharded := run(false), run(true)
		if serial.Completed == 0 {
			t.Fatalf("%s: no completed interactions", tc.name)
		}
		if serial.Completed != sharded.Completed {
			t.Errorf("%s: Completed %d vs %d", tc.name, serial.Completed, sharded.Completed)
		}
		if serial.Elapsed != sharded.Elapsed {
			t.Errorf("%s: Elapsed %v vs %v", tc.name, serial.Elapsed, sharded.Elapsed)
		}
		for name, st := range serial.PerType {
			o := sharded.PerType[name]
			if st.Count != o.Count || st.TotalResp != o.TotalResp {
				t.Errorf("%s: PerType[%s] %+v vs %+v", tc.name, name, st, o)
			}
		}
		// §9.1 in the replicated layout: the pods' and the database's
		// private byte counters merge to the same small ratio the single
		// deployment shows (TestContextBytesTiny), on either schedule.
		if serial.AppBytes != sharded.AppBytes || serial.CtxtBytes != sharded.CtxtBytes {
			t.Errorf("%s: wire bytes %d/%d vs %d/%d", tc.name,
				serial.CtxtBytes, serial.AppBytes, sharded.CtxtBytes, sharded.AppBytes)
		}
		if ratio := float64(sharded.CtxtBytes) / float64(sharded.AppBytes); !(ratio > 0 && ratio <= 0.05) {
			t.Errorf("%s: ctxt/app bytes = %.4f, want in (0, 0.05]", tc.name, ratio)
		}
		if d := whodunit.Diff(serial.Report, sharded.Report); !d.Empty() {
			t.Errorf("%s: report diff not empty (max delta %d)", tc.name, d.MaxDelta())
		}
		var a, b bytes.Buffer
		if err := serial.Report.JSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Report.JSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: report JSON differs between serial and sharded", tc.name)
		}
	}
}
