package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"whodunit"
)

func TestGenDeterministic(t *testing.T) {
	cfg := CacheTrace()
	a, b := Gen(cfg), Gen(cfg)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("two Gen runs at the same seed differ")
	}
	cfg.Seed = 2
	if reflect.DeepEqual(a.Events, Gen(cfg).Events) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenShape(t *testing.T) {
	cfg := CacheTrace()
	cfg.Events = 5000
	tr := Gen(cfg)
	if len(tr.Events) != cfg.Events || tr.Lost != 0 {
		t.Fatalf("got %d events, lost %d", len(tr.Events), tr.Lost)
	}
	gets, prev := 0, whodunit.Duration(0)
	keys := map[string]int{}
	for i := range tr.Events {
		ev := tr.Event(i)
		if !ev.valid(prev) {
			t.Fatalf("invalid event %+v after t=%d", ev, prev)
		}
		prev = ev.T
		if ev.Op == "get" {
			gets++
			if ev.Size != cfg.GetSize {
				t.Fatalf("get size %d, want %d", ev.Size, cfg.GetSize)
			}
		} else if ev.Size < cfg.MinSize || ev.Size > cfg.MaxSize {
			t.Fatalf("set size %d outside [%d, %d]", ev.Size, cfg.MinSize, cfg.MaxSize)
		}
		keys[ev.Key]++
	}
	frac := float64(gets) / float64(cfg.Events)
	if frac < cfg.ReadFrac-0.05 || frac > cfg.ReadFrac+0.05 {
		t.Fatalf("read fraction %.3f far from configured %.2f", frac, cfg.ReadFrac)
	}
	// Zipf skew: the most popular key should dwarf the uniform share.
	max := 0
	for _, n := range keys {
		if n > max {
			max = n
		}
	}
	if uniform := cfg.Events / cfg.Keys; max < 4*uniform {
		t.Fatalf("top key has %d events; expected heavy skew over uniform share %d", max, uniform)
	}
}

func TestGenHotKeys(t *testing.T) {
	cfg := CacheTrace()
	cfg.Events = 4000
	cfg.HotKeys = 3
	cfg.HotFrac = 0.6
	tr := Gen(cfg)
	hot := 0
	for i := range tr.Events {
		if ev := tr.Event(i); ev.Key == "k0000" || ev.Key == "k0001" || ev.Key == "k0002" {
			hot++
		}
	}
	if frac := float64(hot) / float64(cfg.Events); frac < 0.55 {
		t.Fatalf("hot keys drew %.3f of events, want >= 0.55", frac)
	}
}

func TestGenBursts(t *testing.T) {
	cfg := MetaKV()
	cfg.Events = 6000
	tr := Gen(cfg)
	inBurst, outBurst := 0, 0
	for _, ev := range tr.Events {
		if ev.T%cfg.BurstEvery < cfg.BurstLen {
			inBurst++
		} else {
			outBurst++
		}
	}
	// Burst windows cover 20% of time; with a 4x rate they should hold
	// roughly 4*0.2/(4*0.2+0.8) = 50% of events.
	if frac := float64(inBurst) / float64(inBurst+outBurst); frac < 0.35 {
		t.Fatalf("burst windows hold only %.3f of events; bursts not happening", frac)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := MetaKV()
	cfg.Events = 300
	tr := Gen(cfg)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lost != 0 {
		t.Fatalf("round trip lost %d events", got.Lost)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("round-tripped trace differs")
	}
}

func TestReadSalvagesTruncation(t *testing.T) {
	cfg := CacheTrace()
	cfg.Events = 100
	tr := Gen(cfg)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Cut the stream mid-way through a line: the salvaged prefix holds
	// every complete valid record, the header count accounts the rest.
	full := buf.Bytes()
	cut := full[:len(full)*2/3]
	got, err := Read(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) == 0 || len(got.Events) >= 100 {
		t.Fatalf("salvaged %d of 100 events from a 2/3 truncation", len(got.Events))
	}
	if got.Lost != 100-len(got.Events) {
		t.Fatalf("lost %d, want %d", got.Lost, 100-len(got.Events))
	}
	for i := range got.Events {
		if got.Event(i) != tr.Event(i) {
			t.Fatalf("salvaged event %d is %+v, not the original's %+v", i, got.Event(i), tr.Event(i))
		}
	}
}

func TestReadStopsAtCorruptLine(t *testing.T) {
	lines := []string{
		`{"format":"whodunit-trace/v1","events":4}`,
		`{"t":10,"stream":0,"op":"get","key":"a","size":1}`,
		`{"t":5,"stream":0,"op":"get","key":"b","size":1}`, // time goes backwards
		`{"t":20,"stream":0,"op":"get","key":"c","size":1}`,
	}
	got, err := Read(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 1 || got.Lost != 3 {
		t.Fatalf("kept %d lost %d; want 1 kept (the rest after the corrupt line is lost: 3)", len(got.Events), got.Lost)
	}
}

// outOfRangeTraces are two trace files whose second-to-last line does
// not fit a Record: one names stream 65 536, the other a 257th distinct
// op (and a key no earlier line named). Each ends with a valid line.
func outOfRangeTraces() (stream, op []byte) {
	stream = []byte(`{"format":"whodunit-trace/v1","events":3}
{"t":1,"stream":65535,"op":"get","key":"a","size":1}
{"t":2,"stream":65536,"op":"get","key":"a","size":1}
{"t":3,"stream":0,"op":"get","key":"a","size":1}
`)
	var b strings.Builder
	b.WriteString(`{"format":"whodunit-trace/v1","events":258}` + "\n")
	for i := 0; i < 257; i++ {
		key := "a"
		if i == 256 {
			key = "fresh"
		}
		fmt.Fprintf(&b, `{"t":%d,"stream":0,"op":"op%d","key":%q,"size":1}`+"\n", i, i, key)
	}
	b.WriteString(`{"t":300,"stream":0,"op":"op0","key":"a","size":1}` + "\n")
	return stream, []byte(b.String())
}

// TestReadSalvagesOutOfRangeIDs: a line whose stream id is 16 bits wide
// or more, or which names a 257th op, is corrupt: the prefix is kept,
// the rest is counted lost, and the refused line leaves no name behind
// in either table.
func TestReadSalvagesOutOfRangeIDs(t *testing.T) {
	stream, op := outOfRangeTraces()
	got, err := Read(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 1 || got.Lost != 2 || got.Event(0).Stream != 65535 {
		t.Fatalf("stream 65536: kept %d (%+v), lost %d; want stream 65535 kept and 2 lost", len(got.Events), got.Events, got.Lost)
	}
	got, err = Read(bytes.NewReader(op))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 256 || got.Lost != 2 || len(got.Ops) != 256 || got.Ops[255] != "op255" {
		t.Fatalf("257th op: kept %d, lost %d, %d ops; want 256 kept, 2 lost, 256 ops", len(got.Events), got.Lost, len(got.Ops))
	}
	if !reflect.DeepEqual(got.Keys, []string{"a"}) {
		t.Fatalf("keys %q: the refused line's key was interned", got.Keys)
	}
}

// TestRecordIs24Bytes pins the stored event's layout: two 8-byte fields
// and the key, stream and op indices in one more word.
func TestRecordIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 24 {
		t.Fatalf("a Record is %d bytes, want 24", n)
	}
}

func TestReadHeaderErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"garbage":      "not json at all",
		"wrong format": `{"format":"something-else/v9"}`,
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s input: want an error, got none", name)
		}
	}
}

// TestReplayBitReproducible drives the same trace through two identical
// apps and pins the reports bit-for-bit — the replay acceptance bar.
func TestReplayBitReproducible(t *testing.T) {
	cfg := CacheTrace()
	cfg.Events = 200
	tr := Gen(cfg)
	run := func() []byte {
		app := whodunit.NewApp("replay", whodunit.WithMode(whodunit.ModeWhodunit), whodunit.WithSeed(9))
		st := app.Stage("sink")
		q := app.NewQueue("in")
		done := 0
		st.Go("worker", func(th *whodunit.Thread, pr *whodunit.Probe) {
			for {
				ev := q.Get(th).(Event)
				st.BeginTxn(pr, "ingest_"+ev.Op)
				pr.Compute(whodunit.Duration(50000 + ev.Size))
				done++
			}
		})
		Replay(app, tr, func(ev Event) { q.Put(ev) })
		rep := app.RunUntil(func() bool { return done >= len(tr.Events) })
		var buf bytes.Buffer
		if err := rep.JSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two replays of the same trace diverge")
	}
}

// TestOpenLoopMatchesGen: the open-loop stream is Gen's sequence
// continued — the first n injected events are Gen(cfg)'s n records.
func TestOpenLoopMatchesGen(t *testing.T) {
	cfg := MetaKV()
	cfg.Events = 150
	tr := Gen(cfg)
	want := make([]Event, len(tr.Events))
	for i := range want {
		want[i] = tr.Event(i)
	}

	app := whodunit.NewApp("openloop", whodunit.WithSeed(1))
	var got []Event
	OpenLoop(app, cfg, func(ev Event) { got = append(got, ev) })
	app.RunUntil(func() bool { return len(got) >= len(want) })
	if !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatal("open-loop stream diverges from Gen at the same config")
	}
}

// TestArrivalsAllocateNothing: Replay and OpenLoop re-schedule one bound
// method value per process, so once the event queue and the generator's
// key table are warm an arrival allocates nothing — and each event is
// still injected at exactly its own instant. (A closure per event was
// one allocation per operation of every mesh workload.)
func TestArrivalsAllocateNothing(t *testing.T) {
	cfg := CacheTrace()
	cfg.Events, cfg.Keys, cfg.HotKeys = 4000, 8, 0
	tr := Gen(cfg)
	for name, install := range map[string]func(*whodunit.App, func(Event)){
		"Replay":   func(app *whodunit.App, inject func(Event)) { Replay(app, tr, inject) },
		"OpenLoop": func(app *whodunit.App, inject func(Event)) { OpenLoop(app, cfg, inject) },
	} {
		app := whodunit.NewApp(name, whodunit.WithSeed(1))
		sim := app.Sim()
		n := 0
		install(app, func(ev Event) {
			if want := tr.Event(n); ev != want || sim.Now() != whodunit.Time(want.T) {
				t.Fatalf("%s: event %d is %+v at %v, want %+v at its own instant", name, n, ev, sim.Now(), want)
			}
			n++
		})
		sim.RunUntil(func() bool { return n >= cfg.Events/2 })
		avg := testing.AllocsPerRun(1, func() {
			stop := n + cfg.Events/5
			sim.RunUntil(func() bool { return n >= stop })
		})
		if avg > 2 { // the stop predicate and the bound it captures; 800 arrivals
			t.Errorf("%s: %.0f allocations over %d arrivals, want none per arrival", name, avg, cfg.Events/5)
		}
	}
}

func TestGenConfigValidation(t *testing.T) {
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.Keys = 0 },
		func(c *GenConfig) { c.Streams = 0 },
		func(c *GenConfig) { c.Streams = 65537 }, // a stream id is 16 bits
		func(c *GenConfig) { c.MeanGap = 0 },
	}
	for i, mutate := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad config did not panic", i)
				}
			}()
			cfg := CacheTrace()
			mutate(&cfg)
			Gen(cfg)
		}()
	}
}

// TestGenKeyTable: the per-generator key table yields exactly the names
// the generator used to format per event — five-digit ids included — and
// once every name in use has been formatted, drawing an event in its
// wide form, as OpenLoop does, allocates nothing.
func TestGenKeyTable(t *testing.T) {
	cfg := CacheTrace()
	cfg.Keys, cfg.HotKeys, cfg.HotFrac = 12_000, 12_500, 0.1
	g := newGen(cfg)
	for id := range g.keys {
		if got, want := g.key(id), fmt.Sprintf("k%04d", id); got != want {
			t.Fatalf("key(%d) = %q, want %q", id, got, want)
		}
	}
	if n := len(g.keys); n != 12_500 || g.key(n-1) != "k12499" || g.key(7) != "k0007" {
		t.Fatalf("table of %d keys, last %q, eighth %q", n, g.key(n-1), g.key(7))
	}
	var sink Event
	if avg := testing.AllocsPerRun(1000, func() { sink = g.event() }); avg != 0 {
		t.Errorf("a warm generator allocates %.2f times per event, want 0 (last %+v)", avg, sink)
	}
}
