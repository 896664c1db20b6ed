package mesh

import (
	"testing"

	"whodunit"
)

// TestInjectResetsEnvelope: an injector may hand Inject an envelope that
// has made a round trip before (meshkv recycles them), so both entry
// paths must overwrite what the last trip left in it: the entry flag,
// the message, the reply queue and the injection time.
func TestInjectResetsEnvelope(t *testing.T) {
	for _, latency := range []whodunit.Duration{0, 3 * whodunit.Millisecond} {
		app := whodunit.NewApp("inject")
		svc := New(app).Service("front", 1, func(*Call) {})
		inject := svc.Inject
		if latency > 0 {
			inject = svc.Ingress(latency).Inject
		}
		stale := app.NewQueue("stale")
		at := whodunit.Time(5 * whodunit.Millisecond)
		var got Request
		app.Sim().At(at, func() {
			req := &Request{Op: "get", Start: 1, msg: whodunit.Msg{Data: 1}, replyQ: stale}
			inject(req)
			got = *req
		})
		app.RunUntil(func() bool { return got.Op != "" })
		if !got.entry || got.msg.Data != nil || got.replyQ != nil || got.Start != at.Add(latency) {
			t.Errorf("latency %v: injected envelope entry=%v msg=%+v replyQ=%v Start=%v, want true, zero, nil, %v",
				latency, got.entry, got.msg, got.replyQ, got.Start, at.Add(latency))
		}
	}
}
