package whodunit_test

import (
	"bytes"
	"testing"

	"whodunit"
)

// buildEcho runs a shard-agnostic two-tier echo model — clients and a
// front stage on shard 1, a back stage on shard 0, requests and replies
// crossing domains over 1ms pipes — and returns its report. Written
// against the modulo placement contract, the same code runs collapsed
// (shards=1) or sharded (shards>=2) unchanged.
func buildEcho(t *testing.T, shards int) *whodunit.Report {
	t.Helper()
	app := whodunit.NewApp("echo", whodunit.WithSeed(7), whodunit.WithShards(shards))
	const clients, rounds, workers = 6, 8, 2

	back := app.Stage("back", whodunit.StageCPU(1)) // shard 0
	backQ := app.NewQueueOn(0, "back-in")

	front := app.Stage("front", whodunit.StageCPU(2), whodunit.StageShard(1))
	frontQ := app.NewQueueOn(1, "front-in")

	type req struct {
		id     int
		replyQ *whodunit.Queue // same-domain reply (front -> client)
		back   *whodunit.Pipe  // cross-domain reply (back -> front worker)
	}

	toBack := app.Pipe(1, backQ, whodunit.Millisecond)
	for w := 0; w < workers; w++ {
		replyQ := app.NewQueueOn(1, "front-reply")
		fromBack := app.Pipe(0, replyQ, whodunit.Millisecond)
		front.Go("front-worker", func(th *whodunit.Thread, pr *whodunit.Probe) {
			for {
				r := frontQ.Get(th).(*req)
				front.BeginTxn(pr, "serve")
				pr.Compute(200 * whodunit.Microsecond)
				r.back = fromBack
				toBack.Send(r)
				r = replyQ.Get(th).(*req)
				pr.Compute(100 * whodunit.Microsecond)
				r.replyQ.Put(r)
			}
		})
	}
	back.Go("back-worker", func(th *whodunit.Thread, pr *whodunit.Probe) {
		for {
			r := backQ.Get(th).(*req)
			back.BeginTxn(pr, "lookup")
			pr.Compute(300 * whodunit.Microsecond)
			r.back.Send(r)
		}
	})
	for c := 0; c < clients; c++ {
		c := c
		app.GoShard(1, "client", func(th *whodunit.Thread) {
			replyQ := app.NewQueueOn(1, "client-reply")
			r := &req{id: c, replyQ: replyQ}
			for i := 0; i < rounds; i++ {
				th.Sleep(whodunit.Duration(c+1) * whodunit.Millisecond)
				frontQ.Put(r)
				replyQ.Get(th)
			}
		})
	}
	return app.Run()
}

// TestShardedEchoIdentity pins the App-layer tentpole invariant: the
// same model produces byte-identical reports at every shard count.
func TestShardedEchoIdentity(t *testing.T) {
	var base bytes.Buffer
	serial := buildEcho(t, 1)
	if err := serial.JSON(&base); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 4} {
		rep := buildEcho(t, shards)
		if d := whodunit.Diff(serial, rep); !d.Empty() {
			t.Fatalf("shards=%d: diff vs serial not empty (max delta %d)", shards, d.MaxDelta())
		}
		var buf bytes.Buffer
		if err := rep.JSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base.Bytes(), buf.Bytes()) {
			t.Fatalf("shards=%d: JSON differs from serial", shards)
		}
	}
}

// TestWithShardsCollapse: the cross-cutting machinery that reads state
// across the whole app from one scheduler forces the documented serial
// fallback.
func TestWithShardsCollapse(t *testing.T) {
	if got := whodunit.NewApp("x", whodunit.WithShards(4), whodunit.WithCrosstalk(func(whodunit.TxnCtxt) string { return "t" })).Shards(); got != 1 {
		t.Errorf("WithCrosstalk: Shards() = %d, want 1", got)
	}
	if got := whodunit.NewApp("f", whodunit.WithShards(4), whodunit.WithFlowDetection()).Shards(); got != 1 {
		t.Errorf("WithFlowDetection: Shards() = %d, want 1", got)
	}
	plan := &whodunit.FaultPlan{Stalls: []whodunit.Stall{{At: whodunit.Time(whodunit.Second), For: whodunit.Millisecond}}}
	if got := whodunit.NewApp("p", whodunit.WithShards(4), whodunit.WithFaults(plan)).Shards(); got != 1 {
		t.Errorf("WithFaults: Shards() = %d, want 1", got)
	}
	app := whodunit.NewApp("s", whodunit.WithShards(4))
	if got := app.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	app.SetFaults(plan)
	if got := app.Shards(); got != 1 {
		t.Errorf("SetFaults: Shards() = %d, want 1", got)
	}
}

// TestPipelessShardsDeterministic: a sharded app without a pipe has no
// epoch, so RunFor bounds domain 0 and domain 1 runs to completion after
// it, on the same goroutine. Domain 1's ticker outlives the bound; were
// the domains run side by side, RunFor's clock (the largest domain
// clock) would stop domain 0 wherever domain 1 happened to be.
func TestPipelessShardsDeterministic(t *testing.T) {
	const bound, away = 50 * whodunit.Millisecond, 100_000
	run := func() []byte {
		app := whodunit.NewApp("pipeless", whodunit.WithSeed(3), whodunit.WithShards(2))
		home := app.Stage("home", whodunit.StageCPU(1))
		far := app.Stage("far", whodunit.StageCPU(1), whodunit.StageShard(1))
		home.Go("tick", func(th *whodunit.Thread, pr *whodunit.Probe) {
			for {
				pr.Compute(whodunit.Microsecond)
			}
		})
		ticks := 0
		far.Go("tick", func(th *whodunit.Thread, pr *whodunit.Probe) {
			for ; ticks < away; ticks++ {
				pr.Compute(whodunit.Microsecond)
			}
		})
		rep := app.RunFor(bound)
		if end := app.ShardSim(0).Now(); end < whodunit.Time(bound) || end > whodunit.Time(bound+whodunit.Millisecond) {
			t.Errorf("domain 0 stopped at %v, want just past %v", end, whodunit.Time(bound))
		}
		if ticks != away {
			t.Errorf("domain 1 ran %d ticks, want all %d", ticks, away)
		}
		var buf bytes.Buffer
		if err := rep.JSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("two runs at one seed differ:\n%s\n%s", a, b)
	}
}

// TestStageShardNeedsPrivateCPU: a stage off shard 0 cannot charge the
// shared CPU (it lives on domain 0).
func TestStageShardNeedsPrivateCPU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StageShard without StageCPU did not panic")
		}
	}()
	app := whodunit.NewApp("bad", whodunit.WithShards(2))
	app.Stage("tier", whodunit.StageShard(1))
}

// TestZeroLatencyPipeFallback: a zero-latency pipe collapses the app to
// one domain while nothing is placed off shard 0, and panics once
// something is.
func TestZeroLatencyPipeFallback(t *testing.T) {
	app := whodunit.NewApp("z", whodunit.WithShards(4))
	q := app.NewQueue("q")
	app.Pipe(0, q, 0)
	if got := app.Shards(); got != 1 {
		t.Fatalf("Shards() = %d after zero-latency pipe, want 1", got)
	}
	// Placement after the collapse folds to domain 0.
	app.Stage("tier", whodunit.StageShard(3), whodunit.StageCPU(1))

	app2 := whodunit.NewApp("z2", whodunit.WithShards(4))
	q2 := app2.NewQueueOn(2, "q2")
	defer func() {
		if recover() == nil {
			t.Fatal("zero-latency pipe after off-zero placement did not panic")
		}
	}()
	app2.Pipe(0, q2, 0)
}
