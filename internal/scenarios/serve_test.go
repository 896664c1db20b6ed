// The serving-corpus regression harness: each serving scenario's first
// few retired-window Reports are pinned bit-for-bit as a concatenated
// JSON golden (regenerable with -update), the sequence is asserted
// deterministic across runs, and the adjacent-window alert gate is
// checked at the scenario's recommended threshold — steady pairs pass,
// the serve-shift injected regression alerts.
package scenarios_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"whodunit"
	"whodunit/internal/scenarios"
)

const serveGoldenWindows = 5

// renderWindows concatenates the windows' JSON forms — the bit-pinned
// serving artifact.
func renderWindows(t *testing.T, reps []*whodunit.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rep := range reps {
		if err := rep.JSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// renderEvents renders the full event feed — full and partial windows
// with their degraded/recovered annotations — one header line plus the
// report JSON per event. This is the pinned artifact of the scenarios
// that crash (pinsEvents), where the crash-partial window and the
// recovery point are exactly what the golden must not let drift.
func renderEvents(t *testing.T, evs []*whodunit.WindowEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range evs {
		fmt.Fprintf(&buf, "# window %d elapsed_ns=%d degraded=%v recovered=%v restarts=%d alert=%v\n",
			ev.Report.Window.Seq, ev.Report.Elapsed, ev.Degraded, ev.Recovered, ev.Restarts, ev.Alert)
		if err := ev.Report.JSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// pinsEvents says whether a serving scenario's golden is its event feed
// (<name>.events.golden, the scenarios that crash and recover) rather
// than its full windows. A new such scenario needs the file created
// before -update fills it.
func pinsEvents(s scenarios.ServeScenario) bool {
	_, err := os.Stat(goldenPath(s.Name, "events"))
	return err == nil
}

func TestServeWindowsGolden(t *testing.T) {
	for _, s := range scenarios.ServeAll() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if pinsEvents(s) {
				// Pin the whole event feed instead — six windows
				// spanning the crash, the partial salvage and the
				// recovery.
				evs := s.Events(6)
				if len(evs) != 6 {
					t.Fatalf("got %d events, want 6", len(evs))
				}
				sawPartial, sawRecovered := false, false
				for i, ev := range evs {
					if ev.Report.Window == nil || ev.Report.Window.Seq != int64(i) {
						t.Fatalf("event %d has window metadata %+v; series not dense across the restart",
							i, ev.Report.Window)
					}
					if ev.Report.Elapsed < s.Window {
						sawPartial = true
					}
					if ev.Recovered {
						sawRecovered = true
					}
				}
				if !sawPartial || !sawRecovered {
					t.Fatalf("event feed missing the crash partial (%v) or the recovery (%v)",
						sawPartial, sawRecovered)
				}
				checkBytes(t, s.Name, "events", renderEvents(t, evs))
				return
			}
			reps := s.Windows(serveGoldenWindows)
			if len(reps) != serveGoldenWindows {
				t.Fatalf("got %d windows, want %d", len(reps), serveGoldenWindows)
			}
			for i, rep := range reps {
				if rep.Window == nil || rep.Window.Seq != int64(i) {
					t.Fatalf("window %d has metadata %+v", i, rep.Window)
				}
				if rep.Elapsed != s.Window {
					t.Fatalf("window %d elapsed %v, want %v", i, rep.Elapsed, s.Window)
				}
				if rep.TotalSamples() == 0 {
					t.Fatalf("window %d took no samples", i)
				}
			}
			checkBytes(t, s.Name, "windows.json", renderWindows(t, reps))
		})
	}
}

// TestServeWindowsDeterministic runs each serving scenario twice and
// asserts the retired-window sequences are byte-identical — the fixed
// point the goldens rely on.
func TestServeWindowsDeterministic(t *testing.T) {
	for _, s := range scenarios.ServeAll() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			var a, b []byte
			if pinsEvents(s) {
				// A crashing scenario must be deterministic through the
				// crash and restart, wall-clock backoff and all.
				a = renderEvents(t, s.Events(4))
				b = renderEvents(t, s.Events(4))
			} else {
				a = renderWindows(t, s.Windows(3))
				b = renderWindows(t, s.Windows(3))
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("two runs of %s produced different window sequences (%d vs %d bytes)",
					s.Name, len(a), len(b))
			}
		})
	}
}

// TestServeThresholdGate asserts the recommended thresholds gate
// correctly: every adjacent steady pair of serve-web stays under, and
// serve-shift's mix inversion (t=6s, i.e. between windows 2 and 3)
// exceeds — while its pre-shift pairs stay quiet.
func TestServeThresholdGate(t *testing.T) {
	check := func(t *testing.T, name string, wantAlerts []int) {
		s, ok := scenarios.ServeByName(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		reps := s.Windows(serveGoldenWindows)
		alerted := []int{}
		for i := 1; i < len(reps); i++ {
			d := whodunit.Diff(reps[i-1], reps[i])
			if d.WindowA == nil || d.WindowB == nil || d.WindowA.Seq+1 != d.WindowB.Seq {
				t.Fatalf("diff %d lost window metadata: %+v vs %+v", i, d.WindowA, d.WindowB)
			}
			if d.Exceeds(s.Threshold) {
				alerted = append(alerted, i)
			}
		}
		if len(alerted) != len(wantAlerts) {
			t.Fatalf("%s alerted at windows %v, want %v", name, alerted, wantAlerts)
		}
		for i := range alerted {
			if alerted[i] != wantAlerts[i] {
				t.Fatalf("%s alerted at windows %v, want %v", name, alerted, wantAlerts)
			}
		}
	}
	t.Run("serve-web", func(t *testing.T) { check(t, "serve-web", []int{}) })
	t.Run("serve-shift", func(t *testing.T) { check(t, "serve-shift", []int{3}) })
	// serve-mesh models no shift: the cache-warmup taper must stay under
	// the recommended threshold.
	t.Run("serve-mesh", func(t *testing.T) { check(t, "serve-mesh", []int{}) })
}
