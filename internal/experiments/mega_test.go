package experiments

import "testing"

func TestMegaScaleQuickSmoke(t *testing.T) {
	r := MegaScale(QuickMega)
	for _, row := range r.Rows {
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
}
