package tpcw

import (
	"fmt"
	"strings"
	"testing"

	"whodunit/internal/minidb"
	"whodunit/internal/profiler"
	"whodunit/internal/vclock"
	"whodunit/internal/workload"
)

func shortConfig(clients int) Config {
	cfg := DefaultConfig(clients)
	cfg.Duration = 2 * vclock.Minute
	return cfg
}

func TestCompletesInteractions(t *testing.T) {
	res := Run(shortConfig(40))
	if res.Completed == 0 {
		t.Fatal("no interactions completed")
	}
	if res.ThroughputPerMin <= 0 {
		t.Fatal("no throughput")
	}
	// Mix sanity: Home should be the most frequent interaction.
	if res.PerType[workload.Home].Count < res.PerType[workload.AdminConfirm].Count {
		t.Fatal("mix weights not respected")
	}
}

func TestDBShareShape(t *testing.T) {
	// Table 1's headline: BestSellers and SearchResult together dominate
	// MySQL CPU; everything else is small.
	res := Run(shortConfig(60))
	bs, sr := res.DBShare[workload.BestSellers], res.DBShare[workload.SearchResult]
	if bs+sr < 0.6 {
		t.Fatalf("BestSellers+SearchResult share = %.2f+%.2f, want > 0.6 (shares: %v)",
			bs, sr, res.DBShare)
	}
	if bs < sr/2 || sr < bs/4 {
		t.Fatalf("BestSellers %.2f vs SearchResult %.2f out of shape", bs, sr)
	}
	for _, small := range []string{workload.Home, workload.ProductDetail, workload.SearchRequest} {
		if res.DBShare[small] > 0.1 {
			t.Fatalf("%s share %.2f unexpectedly large", small, res.DBShare[small])
		}
	}
}

func TestAdminConfirmCrosstalkHighestOnMyISAM(t *testing.T) {
	res := Run(shortConfig(60))
	admin := res.MeanCrosstalk[workload.AdminConfirm]
	if admin == 0 {
		t.Skip("no AdminConfirm instances in this short run")
	}
	for name, d := range res.MeanCrosstalk {
		if name == workload.AdminConfirm {
			continue
		}
		if d > admin {
			t.Fatalf("%s crosstalk %v exceeds AdminConfirm's %v", name, d, admin)
		}
	}
}

func TestInnoDBReducesAdminConfirmCrosstalk(t *testing.T) {
	my := shortConfig(60)
	inno := shortConfig(60)
	inno.ItemEngine = minidb.EngineInnoDB
	a, b := Run(my), Run(inno)
	aw, _ := a.Crosstalk.WaitTotal(workload.AdminConfirm)
	bw, _ := b.Crosstalk.WaitTotal(workload.AdminConfirm)
	if a.PerType[workload.AdminConfirm].Count == 0 || b.PerType[workload.AdminConfirm].Count == 0 {
		t.Skip("no AdminConfirm instances")
	}
	if bw >= aw {
		t.Fatalf("InnoDB crosstalk %v not below MyISAM %v", bw, aw)
	}
}

func TestCachingImprovesThroughputUnderLoad(t *testing.T) {
	// Below ~200 clients the offered load, not the database, caps
	// throughput (Figure 12's curves only diverge past the no-caching
	// saturation point), so compare well beyond it.
	base := shortConfig(300)
	cached := shortConfig(300)
	cached.ServletCaching = true
	a, b := Run(base), Run(cached)
	if b.ThroughputPerMin < a.ThroughputPerMin*1.3 {
		t.Fatalf("caching throughput %.0f/min not >> baseline %.0f/min",
			b.ThroughputPerMin, a.ThroughputPerMin)
	}
	// Caching also slashes BestSellers response time.
	if b.PerType[workload.BestSellers].Mean() >= a.PerType[workload.BestSellers].Mean() {
		t.Fatalf("cached BestSellers response %v not below %v",
			b.PerType[workload.BestSellers].Mean(), a.PerType[workload.BestSellers].Mean())
	}
}

func TestContextBytesTiny(t *testing.T) {
	// §9.1: ~1% communication overhead from synopses.
	res := Run(shortConfig(40))
	ratio := float64(res.CtxtBytes) / float64(res.AppBytes)
	if ratio <= 0 || ratio > 0.05 {
		t.Fatalf("ctxt/app bytes = %.4f, want small positive", ratio)
	}
}

func TestWhodunitOverheadUnderThreePercent(t *testing.T) {
	// Table 2: Whodunit's throughput cost at identical load is small.
	off := shortConfig(60)
	off.Mode = profiler.ModeOff
	who := shortConfig(60)
	a, b := Run(off), Run(who)
	drop := (a.ThroughputPerMin - b.ThroughputPerMin) / a.ThroughputPerMin
	if drop > 0.06 {
		t.Fatalf("whodunit overhead %.1f%% too high (off=%.0f who=%.0f)",
			drop*100, a.ThroughputPerMin, b.ThroughputPerMin)
	}
}

func TestGprofCostlierThanWhodunit(t *testing.T) {
	gp := shortConfig(150)
	gp.Mode = profiler.ModeInstrumented
	who := shortConfig(150)
	a, b := Run(gp), Run(who)
	if a.ThroughputPerMin >= b.ThroughputPerMin {
		t.Fatalf("gprof throughput %.0f not below whodunit %.0f",
			a.ThroughputPerMin, b.ThroughputPerMin)
	}
}

func TestDeterministic(t *testing.T) {
	a, b := Run(shortConfig(30)), Run(shortConfig(30))
	if a.Completed != b.Completed || a.Report.TotalSamples() != b.Report.TotalSamples() {
		t.Fatalf("runs diverged: %d vs %d", a.Completed, b.Completed)
	}
}

// TestBuildRejectsBadConfig: every out-of-range Config field is rejected
// where the run is built, with a message naming the package and the
// field — not by a run that "finishes" with nothing completed.
func TestBuildRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Clients", func(c *Config) { c.Clients = 0 }},
		{"TomcatWorkers", func(c *Config) { c.TomcatWorkers = 0 }},
		{"SquidWorkers", func(c *Config) { c.SquidWorkers = 0 }},
		{"DBWorkers", func(c *Config) { c.DBWorkers = -2 }},
		{"Replicas", func(c *Config) { c.Replicas = -1 }},
	} {
		cfg := shortConfig(10)
		tc.mutate(&cfg)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "tpcw: ") || !strings.Contains(msg, tc.field) {
					t.Errorf("bad %s: Run panicked with %q, want a tpcw: message naming it", tc.field, msg)
				}
			}()
			Run(cfg)
			t.Errorf("bad %s: Run did not panic", tc.field)
		}()
	}
}
