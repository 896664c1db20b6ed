// The sharded-determinism pin at corpus level: the byte-identical
// tpcw-mega / mesh-mega golden pairs are the acceptance bar for
// epoch-sharded simulated time — sharding may never change a single
// output byte.
package scenarios_test

import (
	"bytes"
	"testing"

	"whodunit"
	"whodunit/internal/scenarios"
)

func renderJSON(t *testing.T, rep *whodunit.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMegaGoldenPairsIdentical: the sharded and serial members of each
// mega pair produce byte-identical reports — the invariant the paired
// golden files and the CI whodunit-diff gate rest on.
func TestMegaGoldenPairsIdentical(t *testing.T) {
	for _, pair := range [][2]string{
		{"tpcw-mega", "tpcw-mega-serial"},
		{"mesh-mega", "mesh-mega-serial"},
	} {
		a, ok := scenarios.ByName(pair[0])
		if !ok {
			t.Fatalf("missing scenario %s", pair[0])
		}
		b, ok := scenarios.ByName(pair[1])
		if !ok {
			t.Fatalf("missing scenario %s", pair[1])
		}
		ja, jb := renderJSON(t, a.Report()), renderJSON(t, b.Report())
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s and %s reports are not byte-identical (%d vs %d bytes)",
				pair[0], pair[1], len(ja), len(jb))
		}
	}
}
