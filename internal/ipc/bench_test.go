package ipc

import (
	"fmt"
	"testing"

	"whodunit/internal/profiler"
	"whodunit/internal/tranctx"
)

// BenchmarkSendRecv is one request/response round trip between two
// stages — Send, Recv as a request, Send the reply, Recv as a response —
// rotating over 64 caller contexts, the shape of bench/layers.go's
// ipc.sendrecv_ns driver. The callee replies from its root context with
// an empty stack, so all 64 of its chains end in synopsis 0 and share
// one slot: the round trip includes finding one chain among 64 there.
func BenchmarkSendRecv(b *testing.B) {
	b.ReportAllocs()
	profA, profB := profiler.New("a", profiler.ModeWhodunit), profiler.New("b", profiler.ModeWhodunit)
	prA, prB := profA.NewProbe(nil, nil), profB.NewProbe(nil, nil)
	epA, epB := NewEndpoint("a"), NewEndpoint("b")
	defer prA.Exit(prA.Enter("serve"))
	ctx := make([]profiler.TxnCtxt, 64)
	for i := range ctx {
		ctx[i] = profiler.TxnCtxt{Local: profA.Table.Root().Append(tranctx.HandlerHop("a", fmt.Sprintf("h%d", i)))}
	}
	round := func(i int) {
		prA.SetTxn(ctx[i%len(ctx)])
		if epB.Recv(prB, epA.Send(prA, nil)) != Request || epA.Recv(prA, epB.Send(prB, nil)) != Response {
			b.Fatal("round trip misclassified")
		}
	}
	for i := range ctx {
		round(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}
