package whodunit_test

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"whodunit"
)

// foldedFixture runs a small two-stage app and returns its report.
func foldedFixture(t *testing.T) *whodunit.Report {
	t.Helper()
	app := whodunit.NewApp("shop", whodunit.WithMode(whodunit.ModeWhodunit))
	web, db := app.Stage("web"), app.Stage("db")
	reqQ, respQ := app.NewQueue("req").Raw(), app.NewQueue("resp").Raw()
	twoStageWorkload(app.Sim(), reqQ, respQ, web.Endpoint(), db.Endpoint(),
		func(body func(*whodunit.Thread, *whodunit.Probe)) { web.Go("web", body) },
		func(body func(*whodunit.Thread, *whodunit.Probe)) { db.Go("db", body) })
	return app.Run()
}

func TestReportFolded(t *testing.T) {
	rep := foldedFixture(t)
	var buf bytes.Buffer
	rep.Folded(&buf)
	out := buf.String()
	if out == "" {
		t.Fatal("empty folded output")
	}
	var total int64
	sawDB := false
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("folded line without count: %q", line)
		}
		n, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil || n <= 0 {
			t.Fatalf("bad count in folded line %q: %v", line, err)
		}
		total += n
		frames := strings.Split(line[:sp], ";")
		if len(frames) < 3 {
			t.Fatalf("folded line %q needs stage;context;frame...", line)
		}
		if frames[0] == "db" && frames[len(frames)-1] == "exec_query" {
			sawDB = true
		}
	}
	// Every profile sample appears exactly once across the folded lines.
	if total != rep.TotalSamples() {
		t.Fatalf("folded counts sum to %d, want %d", total, rep.TotalSamples())
	}
	if !sawDB {
		t.Fatal("db exec_query stack missing from folded output")
	}

	// Folded must survive the JSON round trip (it reads the dumps).
	var js bytes.Buffer
	if err := rep.JSON(&js); err != nil {
		t.Fatal(err)
	}
	back, err := whodunit.ReadReport(&js)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	back.Folded(&buf2)
	if buf2.String() != out {
		t.Fatal("folded output differs after JSON round trip")
	}
}

// TestReportJSONMemoryIndependentOfFlows: encoding a report allocates a
// bounded amount however long its flow log is, since the log is written
// flow by flow rather than marshalled whole and then re-indented (about
// 136 MB for these 100 000 flows). Not parallel: it reads the process's
// allocation counter.
func TestReportJSONMemoryIndependentOfFlows(t *testing.T) {
	r := whodunit.NewReport("flows")
	r.Flows = make([]whodunit.FlowEvent, 100_000)
	for i := range int32(len(r.Flows)) {
		r.Flows[i] = whodunit.FlowEvent{Producer: i, Consumer: i + 1, Token: whodunit.FlowToken(i), Lock: 7}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.JSON(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("encoding 100 000 flows allocated %d bytes, want at most 2 MB", grew)
	}
}

// TestReadReportMemoryIndependentOfText: decoding a report allocates
// about what the decoded flow log holds, not what its text takes: the
// 100 000 flows below are 2.8 MB decoded and 17 MB of text, and one
// json.Decoder over the whole input allocated about 68 MB for them. Not
// parallel: it reads the process's allocation counter.
func TestReadReportMemoryIndependentOfText(t *testing.T) {
	r := whodunit.NewReport("flows")
	r.Flows = make([]whodunit.FlowEvent, 100_000)
	for i := range int32(len(r.Flows)) {
		r.Flows[i] = whodunit.FlowEvent{Producer: i, Consumer: i + 1, Token: whodunit.FlowToken(i), Lock: 7}
	}
	var js bytes.Buffer
	if err := r.JSON(&js); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	back, err := whodunit.ReadReport(bytes.NewReader(js.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Flows, r.Flows) {
		t.Fatal("flow log differs after the round trip")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("decoding 100 000 flows (%d bytes of JSON) allocated %d bytes, want at most 16 MB", js.Len(), grew)
	}
}

// TestReportFromDumpsSharesOrder: shares rebuilt from a dump come by
// descending samples, then label, whatever the order of the dump's
// trees, as Profiler.Shares orders a run's.
func TestReportFromDumpsSharesOrder(t *testing.T) {
	var d whodunit.StageDump
	for _, tr := range []struct {
		label string
		total int64
	}{{"b", 5}, {"d", 0}, {"c", 10}, {"a", 5}} {
		d.Trees = append(d.Trees, whodunit.TreeDump{Key: tr.label, Label: tr.label, Total: tr.total})
	}
	var got []string
	for _, sh := range whodunit.ReportFromDumps("app", d).Stages[0].Shares {
		got = append(got, sh.Label+":"+strconv.FormatFloat(sh.Share, 'g', -1, 64))
	}
	if want := []string{"c:0.5", "a:0.25", "b:0.25", "d:0"}; !slices.Equal(got, want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
}
