package whodunit_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"whodunit"
	"whodunit/internal/testhook"
)

// crashyServer runs a supervised server whose first run dies mid-window
// 2: window 2 is a partial one, so window 3's auto-diff base is window
// 1, not its neighbour. Threshold 0 makes every auto-diff alert.
func crashyServer(retain, windows int) *whodunit.Server {
	return whodunit.NewServer(nil, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: 0, MaxWindows: windows,
		Retain: retain, RestartBackoff: time.Millisecond,
		MakeApp: func(run int) *whodunit.App {
			if run == 0 {
				return serveApp(7, whodunit.WithFaults(failAt(250*whodunit.Millisecond)))
			}
			return serveApp(7)
		},
	})
}

// freshReport encodes rep in the /report format named f.
func freshReport(t *testing.T, rep *whodunit.Report, f string) string {
	t.Helper()
	var b bytes.Buffer
	switch f {
	case "json":
		if err := rep.JSON(&b); err != nil {
			t.Fatal(err)
		}
	case "text":
		rep.Text(&b)
	case "folded":
		rep.Folded(&b)
	}
	return b.String()
}

// freshDiff encodes d in the /diff format named f.
func freshDiff(t *testing.T, d *whodunit.ReportDiff, f string) string {
	t.Helper()
	var b bytes.Buffer
	switch f {
	case "json":
		if err := d.JSON(&b); err != nil {
			t.Fatal(err)
		}
	case "text":
		d.Text(&b)
	}
	return b.String()
}

// freshFrame is one window's /stream frame, encoded from scratch.
func freshFrame(t *testing.T, ev *whodunit.WindowEvent) string {
	t.Helper()
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	seq := ev.Report.Window.Seq
	s := fmt.Sprintf("event: window\nid: %d\ndata: %s\n\n", seq, data)
	if ev.Alert {
		s += fmt.Sprintf("event: alert\nid: %d\ndata: {\"seq\": %d, \"max_delta\": %d}\n\n", seq, seq, ev.MaxDelta)
	}
	if ev.Degraded {
		s += fmt.Sprintf("event: degraded\nid: %d\ndata: {\"seq\": %d, \"restarts\": %d, \"recovered\": %v}\n\n",
			seq, seq, ev.Restarts, ev.Recovered)
	}
	return s
}

// TestServeMemoMatchesFreshEncoding checks that every response built from
// a retained window's memo equals a fresh encoding, on the first read and
// on every later one: each retained window in each /report format, and
// /diff over every ordered pair of retained windows in each format (the
// auto-diff pairs, the neighbours 2 and 3 that are not one because 2 is
// the crash-partial window, reversed, distant and self pairs). The
// retained reports' encodings must not change under the handlers.
func TestServeMemoMatchesFreshEncoding(t *testing.T) {
	srv := crashyServer(8, 9)
	srv.Run()
	h := srv.Handler()
	entries := srv.Ring().Entries()
	if len(entries) != 8 || entries[0].Meta.Seq != 1 {
		t.Fatalf("retained %d windows from %d, want 8 from 1", len(entries), entries[0].Meta.Seq)
	}
	before := make([]string, len(entries))
	for i, kv := range entries {
		before[i] = freshReport(t, kv.V.Report, "json")
	}

	read := func(url, want string) {
		t.Helper()
		for range 2 {
			code, body := get(t, h, url)
			if code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", url, code, body)
			}
			if body != want {
				t.Fatalf("GET %s differs from a fresh encoding:\ngot:  %.300s\nwant: %.300s", url, body, want)
			}
		}
	}
	for _, kv := range entries {
		for _, f := range []string{"json", "text", "folded"} {
			read(fmt.Sprintf("/report?window=%d&format=%s", kv.Meta.Seq, f), freshReport(t, kv.V.Report, f))
		}
	}
	latest := entries[len(entries)-1].V.Report
	read("/report", freshReport(t, latest, "json"))
	read("/report?window=live&format=text", freshReport(t, latest, "text"))

	autoDiffs := 0
	for _, a := range entries {
		for _, b := range entries {
			d := whodunit.Diff(a.V.Report, b.V.Report)
			if base := b.V.Against(); base != nil && base.Seq == a.Meta.Seq {
				autoDiffs++
			}
			for _, f := range []string{"json", "text"} {
				read(fmt.Sprintf("/diff?a=%d&b=%d&format=%s", a.Meta.Seq, b.Meta.Seq, f), freshDiff(t, d, f))
			}
			read(fmt.Sprintf("/diff?a=%d&b=%d", a.Meta.Seq, b.Meta.Seq), freshDiff(t, d, "json"))
		}
	}
	// Window 1's base, window 0, is evicted and the partial window 2
	// has none; window 3's is window 1 and every later window's the one
	// before it.
	if autoDiffs != len(entries)-2 {
		t.Fatalf("%d auto-diff pairs among the retained windows, want %d", autoDiffs, len(entries)-2)
	}

	for i, kv := range entries {
		if after := freshReport(t, kv.V.Report, "json"); after != before[i] {
			t.Fatalf("window %d's report changed under the handlers", kv.Meta.Seq)
		}
	}
}

// TestServeStreamFramesMatchFreshEncoding reads /stream with two
// subscribers through a supervised run with alerts and a restart: each
// receives the same bytes, a fresh encoding of every window's frame.
func TestServeStreamFramesMatchFreshEncoding(t *testing.T) {
	srv := crashyServer(16, 6)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bodies := make([]io.ReadCloser, 2)
	for i := range bodies {
		resp, err := http.Get(ts.URL + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = resp.Body
	}
	go srv.Run()
	got := make([][]byte, len(bodies))
	for i, body := range bodies {
		var err error
		if got[i], err = io.ReadAll(body); err != nil {
			t.Fatal(err)
		}
		body.Close()
	}
	<-srv.Done()

	var want string
	for _, kv := range srv.Ring().Entries() {
		want += freshFrame(t, kv.V)
	}
	want += "event: end\ndata: {}\n\n"
	for i, b := range got {
		if string(b) != want {
			t.Fatalf("subscriber %d's stream differs from fresh frames:\ngot:  %.400s\nwant: %.400s", i, b, want)
		}
	}
}

// TestServeConcurrentFirstReadsEncodeOnce races the first reads of every
// retained window: each reader gets the same bytes, from one encoding.
func TestServeConcurrentFirstReadsEncodeOnce(t *testing.T) {
	srv := runServer(t, whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 4,
	})
	h := srv.Handler()
	entries := srv.Ring().Entries()
	const readers = 8
	var wg sync.WaitGroup
	bodies := make([][]string, readers)
	memos := make([][]*byte, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, kv := range entries {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/report?window=%d", kv.Meta.Seq), nil))
				bodies[r] = append(bodies[r], rec.Body.String())
				memos[r] = append(memos[r], unsafe.SliceData(whodunit.ReportJSONMemo(kv.V)))
			}
		}()
	}
	wg.Wait()
	for i, kv := range entries {
		want := freshReport(t, kv.V.Report, "json")
		for r := range readers {
			if bodies[r][i] != want {
				t.Fatalf("reader %d got a different window %d", r, kv.Meta.Seq)
			}
			if memos[r][i] != memos[0][i] {
				t.Fatalf("window %d encoded more than once", kv.Meta.Seq)
			}
		}
	}
}

// TestServeDiffBuiltOnce: retirement builds no window's auto-diff; it
// is built on its first read, from the report the verdict compared
// against, and shared. In a Retain 2 run a /diff of the newest window
// against its base serves its auto-diff, and the oldest window's diff
// still equals Diff of its base and its report after the base's window
// was evicted. In a run read while it retires, Diff(), /diff in
// both formats and the /stream frame race to read each window first:
// they all see one diff, built once. Not parallel: it reads the count
// of auto-diffs built in the process.
func TestServeDiffBuiltOnce(t *testing.T) {
	t.Run("evicted base", func(t *testing.T) {
		srv := whodunit.NewServer(serveApp(7), whodunit.ServeConfig{
			Window: 100 * whodunit.Millisecond, Threshold: -1, Retain: 2, MaxWindows: 5,
		})
		feed, cancel := srv.Ring().Subscribe(8)
		defer cancel()
		built := testhook.AutoDiffs.Load()
		srv.Run()
		var reports []*whodunit.Report
		for kv := range feed {
			reports = append(reports, kv.V.Report)
		}
		if n := testhook.AutoDiffs.Load() - built; n != 0 {
			t.Fatalf("retiring %d windows built %d auto-diffs, want none", len(reports), n)
		}
		// A /diff of the newest window against its base is its auto-diff.
		oldest, newest := srv.Ring().Entries()[0], srv.Ring().Entries()[1]
		url := fmt.Sprintf("/diff?a=%d&b=%d", oldest.Meta.Seq, newest.Meta.Seq)
		code, body := get(t, srv.Handler(), url)
		if n := testhook.AutoDiffs.Load() - built; n != 1 {
			t.Fatalf("GET %s built %d auto-diffs, want 1", url, n)
		}
		if code != http.StatusOK || body != freshDiff(t, newest.V.Diff(), "json") {
			t.Fatalf("GET %s: %d, or other bytes than the newest window's auto-diff", url, code)
		}
		base := oldest.V.Against()
		if base == nil || base.Seq != oldest.Meta.Seq-1 {
			t.Fatalf("window %d's auto-diff base is %+v, want window %d", oldest.Meta.Seq, base, oldest.Meta.Seq-1)
		}
		if _, ok := srv.Ring().Get(base.Seq); ok {
			t.Fatalf("window %d is still retained", base.Seq)
		}
		want := whodunit.Diff(reports[base.Seq], oldest.V.Report)
		got := oldest.V.Diff()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d's auto-diff differs from Diff of its evicted base and its report", oldest.Meta.Seq)
		}
		if got != oldest.V.Diff() || oldest.V.MaxDelta != want.MaxDelta() {
			t.Fatalf("a second read built another diff, or MaxDelta %d is not the diff's %d", oldest.V.MaxDelta, want.MaxDelta())
		}
		if n := testhook.AutoDiffs.Load() - built; n != 2 {
			t.Fatalf("%d auto-diffs built, want 2", n)
		}
	})

	t.Run("concurrent first reads", func(t *testing.T) {
		srv := whodunit.NewServer(serveApp(7), whodunit.ServeConfig{
			Window: 100 * whodunit.Millisecond, Threshold: 0, MaxWindows: 6,
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		var stream []byte
		streamDone := make(chan struct{})
		go func() {
			defer close(streamDone)
			stream, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}()
		feed, cancel := srv.Ring().Subscribe(16)
		defer cancel()
		built := testhook.AutoDiffs.Load()
		go srv.Run()

		const readers = 4
		type reads struct {
			ev          *whodunit.WindowEvent
			diffs       [readers]*whodunit.ReportDiff
			json, text  [readers]string
			jsonC, txtC [readers]int
		}
		var all []*reads
		var wg sync.WaitGroup
		fetch := func(url string, body *string, code *int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				*code = -1
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			*body, *code = string(b), resp.StatusCode
		}
		for kv := range feed {
			base := kv.V.Against()
			if base == nil {
				continue
			}
			r := &reads{ev: kv.V}
			all = append(all, r)
			url := fmt.Sprintf("%s/diff?a=%d&b=%d", ts.URL, base.Seq, kv.Meta.Seq)
			for i := range readers {
				wg.Add(3)
				go func() { defer wg.Done(); r.diffs[i] = kv.V.Diff() }()
				go fetch(url+"&format=json", &r.json[i], &r.jsonC[i])
				go fetch(url+"&format=text", &r.text[i], &r.txtC[i])
			}
		}
		wg.Wait()
		<-streamDone

		if len(all) != 5 {
			t.Fatalf("%d windows with an auto-diff base, want 5", len(all))
		}
		for _, r := range all {
			d := r.ev.Diff()
			seq := r.ev.Report.Window.Seq
			for i := range readers {
				if r.diffs[i] != d {
					t.Fatalf("window %d: reader %d got a diff of its own", seq, i)
				}
				if r.jsonC[i] != http.StatusOK || r.json[i] != freshDiff(t, d, "json") {
					t.Fatalf("window %d: /diff json reader %d got %d and other bytes", seq, i, r.jsonC[i])
				}
				if r.txtC[i] != http.StatusOK || r.text[i] != freshDiff(t, d, "text") {
					t.Fatalf("window %d: /diff text reader %d got %d and other bytes", seq, i, r.txtC[i])
				}
			}
		}
		var want string
		for _, kv := range srv.Ring().Entries() {
			want += freshFrame(t, kv.V)
		}
		if want += "event: end\ndata: {}\n\n"; string(stream) != want {
			t.Fatalf("/stream differs from fresh frames:\ngot:  %.300s\nwant: %.300s", stream, want)
		}
		if n := testhook.AutoDiffs.Load() - built; n != int64(len(all)) {
			t.Fatalf("%d auto-diffs built for %d windows, want one each", n, len(all))
		}
	})
}

// TestServeRejectsBadFormatFirst checks that a bad format is answered
// before any work: a live report is not requested from a run that has
// not started (it would wait for it), and no diff is computed.
func TestServeRejectsBadFormatFirst(t *testing.T) {
	srv := whodunit.NewServer(serveApp(7), whodunit.ServeConfig{Window: 100 * whodunit.Millisecond})
	h := srv.Handler()
	for _, url := range []string{"/report?window=live&format=bogus", "/diff?a=0&b=1&format=bogus"} {
		done := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			done <- rec.Code
		}()
		select {
		case code := <-done:
			if code != http.StatusBadRequest {
				t.Fatalf("GET %s on a server that never ran: %d, want 400", url, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("GET %s on a server that never ran did not answer", url)
		}
	}
}

// wideApp serves open-loop requests over pages distinct call paths, so
// a window's report, and its diff against the one before, carry a node
// per page.
func wideApp(pages int) *whodunit.App {
	app := whodunit.NewApp("serve-wide", whodunit.WithMode(whodunit.ModeWhodunit),
		whodunit.WithCores(2), whodunit.WithSeed(7))
	web := app.Stage("web")
	reqQ := app.NewQueue("requests")
	app.Arrivals("requests", whodunit.Millisecond, func(i int64) { reqQ.Put(i) })
	names := make([]string, pages)
	for i := range names {
		names[i] = fmt.Sprintf("page_%d", i)
	}
	web.Go("web", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for {
			i := reqQ.Get(th).(int64)
			func() {
				defer pr.Exit(pr.Enter(names[i%int64(pages)]))
				pr.Compute(200 * whodunit.Microsecond)
			}()
		}
	})
	return app
}

// TestServeMemoryBounded runs a headless server through 10 x Retain
// windows. After every window it reads each retained window's /report in
// every format and each adjacent /diff, filling every memo; a /stream
// subscriber disconnects halfway. The heap in use after 10 x Retain
// windows stays within a fixed margin of its value after 2 x Retain, the
// ring holds Retain windows, and the subscriber is gone. Not parallel:
// it reads the process's heap.
func TestServeMemoryBounded(t *testing.T) {
	const (
		retain  = 4
		windows = 10 * retain
		window  = whodunit.Second
		// margin is what the heap in use may grow by between window
		// 2 x Retain and window 10 x Retain - 1. A window's encodings
		// take about 67 KB here, so keeping them past the window's
		// eviction would add about 2 MB over those 31 windows, and
		// keeping the windows themselves more.
		margin = 512 << 10
	)
	app := wideApp(256)
	srv := whodunit.NewServer(app, whodunit.ServeConfig{
		Window: window, Threshold: -1, Retain: retain, MaxWindows: windows,
	})
	h := srv.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	ctx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	heapInuse := func() uint64 {
		// Twice: the first collection moves pooled objects to the
		// victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var heap2, heap10 uint64
	var readErr error
	var subsAfter int
	check := func(url string) {
		if code, body := get(t, h, url); code != http.StatusOK && readErr == nil {
			readErr = fmt.Errorf("GET %s: %d %s", url, code, body)
		}
	}
	// readAll runs in scheduler context just after each window retires.
	var readAll func()
	readAll = func() {
		for i, kv := range srv.Ring().Entries() {
			for _, f := range []string{"json", "text", "folded"} {
				check(fmt.Sprintf("/report?window=%d&format=%s", kv.Meta.Seq, f))
			}
			if i > 0 {
				for _, f := range []string{"json", "text"} {
					check(fmt.Sprintf("/diff?a=%d&b=%d&format=%s", kv.Meta.Seq-1, kv.Meta.Seq, f))
				}
			}
		}
		switch srv.Ring().Total() {
		case 2 * retain:
			heap2 = heapInuse()
		case windows / 2:
			disconnect()
			deadline := time.Now().Add(5 * time.Second)
			for srv.Ring().Subscribers() > 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			subsAfter = srv.Ring().Subscribers()
		case windows - 1:
			// The last window retires as the run stops; measure after
			// the one before it.
			heap10 = heapInuse()
		}
		app.Sim().After(window, readAll)
	}
	app.Sim().At(whodunit.Time(window+whodunit.Millisecond), readAll)
	srv.Run()

	if readErr != nil {
		t.Fatal(readErr)
	}
	if n := srv.Ring().Len(); n != retain {
		t.Fatalf("ring holds %d windows, want %d", n, retain)
	}
	if subsAfter != 0 {
		t.Fatalf("%d subscribers after the /stream client disconnected, want 0", subsAfter)
	}
	if heap2 == 0 || heap10 == 0 {
		t.Fatalf("heap not sampled: at 2 x Retain %d, at 10 x Retain %d", heap2, heap10)
	}
	t.Logf("heap in use: %d KB at %d windows, %d KB at %d", heap2>>10, 2*retain, heap10>>10, windows-1)
	if heap10 > heap2+margin {
		t.Fatalf("heap in use grew from %d KB at %d windows to %d KB at %d: more than %d KB",
			heap2>>10, 2*retain, heap10>>10, windows-1, margin>>10)
	}
}
