package tpcw

import (
	"testing"

	"whodunit"
)

// TestDenseTablesBounded is internal/scenarios' test of that name on the
// three-tier model: every stage's sent dictionary and CallCtxt memo have
// at most one slot per context of the stage, and a run ten times as long
// — long after the rarest interaction has been seen, so it interns no
// further context — leaves them exactly as large. The
// pod's chain registry, filled only when a send materialises a new chain,
// holds one entry per distinct chain tomcat sent the database.
func TestDenseTablesBounded(t *testing.T) {
	type sizes struct{ ctxts, sent, distinct, memo int }
	run := func(minutes int) (map[string]sizes, int) {
		cfg := DefaultConfig(200)
		cfg.Duration = whodunit.Duration(minutes) * whodunit.Minute
		sys := build(cfg)
		sys.finish()
		out := map[string]sizes{}
		for _, st := range sys.app.Stages() {
			z := sizes{st.Profiler().Table.Size(), st.Endpoint().Slots(), st.Endpoint().Distinct(), st.Profiler().CallCtxtSlots()}
			if z.sent > z.ctxts || z.memo > z.ctxts {
				t.Errorf("%d min, stage %s: %d sent slots and %d memo slots for %d contexts", minutes, st.Name, z.sent, z.memo, z.ctxts)
			}
			out[st.Name] = z
		}
		return out, len(sys.pods[0].chains)
	}
	short, shortChains := run(10)
	long, longChains := run(100)
	for name, z := range long {
		t.Logf("stage %-7s %+v after 10 min, %+v after 100", name, short[name], z)
		if z.ctxts == short[name].ctxts && z != short[name] {
			t.Errorf("stage %s: the context dictionary did not grow and a table did: %+v after 10 min, %+v after 100", name, short[name], z)
		}
	}
	// Every chain tomcat materialises is a request to the database or a
	// reply to squid; the registry takes the former, one per interaction.
	if shortChains == 0 || shortChains != longChains || longChains >= long["tomcat"].distinct {
		t.Errorf("chain registry: %d entries after 10 min, %d after 100, of tomcat's %d distinct chains", shortChains, longChains, long["tomcat"].distinct)
	}
}
