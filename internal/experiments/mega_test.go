package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestMegaScaleQuickSmoke(t *testing.T) {
	r := MegaScale(QuickMega)
	for _, row := range r.Rows {
		// The quick runs last milliseconds: a ratio of two of them is
		// noise and must not be printed as a speedup.
		if (row.SerialSec < minTimedSec || row.ShardedSec < minTimedSec) != (row.Speedup == 0) {
			t.Errorf("%s: speedup %.2f from %.3f s and %.3f s runs (floor %.2f s)",
				row.App, row.Speedup, row.SerialSec, row.ShardedSec, minTimedSec)
		}
		if !row.Identical {
			t.Errorf("%s at %d clients: serial and sharded reports differ", row.App, row.Clients)
		}
		if row.Completed == 0 {
			t.Errorf("%s: nothing completed", row.App)
		}
		if row.Epochs == 0 || row.MeanActive < 1 || row.MeanActive > float64(row.Replicas+1) {
			t.Errorf("%s: epoch columns %d epochs, %.2f active do not describe a sharded run", row.App, row.Epochs, row.MeanActive)
		}
	}
	var out bytes.Buffer
	r.Render(&out)
	for _, row := range r.Rows {
		if row.Speedup == 0 && !strings.Contains(out.String(), " n/a ") {
			t.Errorf("%s has no speedup but the table does not say n/a:\n%s", row.App, out.String())
		}
	}
}
