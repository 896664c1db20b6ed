package experiments

import (
	"encoding/json"
	"runtime"
	"testing"
)

// asJSON canonicalises an experiment result for bit-identity comparison.
func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepsDeterministicSerialVsParallel regenerates the same
// experiments once serially and once across a deliberately oversized
// worker pool and asserts the rendered results are bit-identical — the
// parallel sweep must be a pure wall-clock optimisation. Covered shapes:
// a single-run figure whose workload trace is generated by the sharded
// generator (Fig8), a single heavy TPC-W run (Table1), and a real
// client-count sweep whose points fan out (Fig12).
func TestSweepsDeterministicSerialVsParallel(t *testing.T) {
	sweep := TPCWScale{Duration: QuickTPCW.Duration, Sweep: []int{50, 150}}

	run := func(procs int) (fig8, table1, fig12 string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return asJSON(t, Fig8Apache(QuickScale)),
			asJSON(t, Table1TPCW(QuickTPCW)),
			asJSON(t, Fig12Throughput(sweep))
	}

	serial8, serial1, serial12 := run(1)
	par8, par1, par12 := run(8)

	if serial8 != par8 {
		t.Errorf("Fig8Apache differs between serial and parallel runs:\nserial: %s\nparallel: %s", serial8, par8)
	}
	if serial1 != par1 {
		t.Errorf("Table1TPCW differs between serial and parallel runs:\nserial: %s\nparallel: %s", serial1, par1)
	}
	if serial12 != par12 {
		t.Errorf("Fig12Throughput differs between serial and parallel runs:\nserial: %s\nparallel: %s", serial12, par12)
	}
}
