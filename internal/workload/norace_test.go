//go:build !race

package workload

import (
	"runtime"
	"testing"
)

// TestHeapBytesPerWebRequest pins what a generated request costs the
// heap: the slope of bytes allocated against requests between GenWeb of
// 10 000 and of 60 000 connections, so the generator's fixed costs (file
// table, Zipf table) cancel. A request is one 4-byte Request plus its
// share of the connection headers and the pre-pass plan; with the int64
// size stored beside the file id it read about 28. Built without -race,
// whose instrumentation allocates: it reads the process's allocation
// counter.
func TestHeapBytesPerWebRequest(t *testing.T) {
	alloc := func(conns int) (bytes uint64, reqs int) {
		cfg := DefaultWebConfig()
		cfg.NumConns = conns
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := GenWeb(cfg)
		runtime.ReadMemStats(&after)
		for _, c := range tr.Conns {
			reqs += len(c.Reqs)
		}
		return after.TotalAlloc - before.TotalAlloc, reqs
	}
	b0, r0 := alloc(10_000)
	b1, r1 := alloc(60_000)
	perReq := float64(b1-b0) / float64(r1-r0)
	t.Logf("%.2f bytes a request (%d bytes for %d requests, %d for %d)", perReq, b0, r0, b1, r1)
	if perReq > 16 {
		t.Fatalf("a generated web request costs %.2f heap bytes, want at most 16", perReq)
	}
}
