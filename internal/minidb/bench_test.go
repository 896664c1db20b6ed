package minidb

import (
	"testing"

	"whodunit/internal/vclock"
)

// benchLookups runs b.N primary-key lookups through Exec.Lookup from a
// run-to-completion database thread — the face TPC-W's mysqld runs — one
// statement per frame step, keys drawn by key(i). The figure includes
// the statement's lock and CPU steps on the simulator.
func benchLookups(b *testing.B, load func(t *Table), key func(i int) int64) {
	b.ReportAllocs()
	e := newEnv()
	tab := e.db.CreateTable("item", EngineMyISAM)
	load(tab)
	n, i := b.N, 0
	var x *Exec
	var next vclock.Frame
	next = func(c *vclock.Coro, _ any) vclock.Step {
		if _, ok := x.Row(); !ok && i > 0 {
			b.Fatalf("lookup %d missed key %d", i-1, key(i-1))
		}
		if i == n {
			return c.End()
		}
		i++
		return x.Lookup(c, tab, key(i-1), next)
	}
	th := e.s.GoCoro("mysqld", func(c *vclock.Coro, _ any) vclock.Step {
		b.ResetTimer()
		return next(c, nil)
	})
	x = e.db.NewExec(e.p.NewProbe(th, e.cpu))
	e.s.Run()
	b.StopTimer()
	e.s.Shutdown()
}

// BenchmarkLookupDense: ids 0..9999 loaded in order, TPC-W's item table.
// Every row is positional; the lookup indexes rows.
func BenchmarkLookupDense(b *testing.B) {
	benchLookups(b, func(t *Table) { loadItems(t, 10000) }, func(i int) int64 { return int64(i * 13 % 10000) })
}

// BenchmarkLookupSparse: 10000 ids of the shape TPC-W's orders table
// takes (item*100000 + thread). No row is positional; every lookup is a
// map probe, as it was for every table.
func BenchmarkLookupSparse(b *testing.B) {
	id := func(i int) int64 { return int64(i%10000)*100000 + int64(i%7) }
	benchLookups(b, func(t *Table) {
		for i := 0; i < 10000; i++ {
			t.LoadRow(Row{ID: id(i)})
		}
	}, func(i int) int64 { return id(i * 13 % 10000) })
}
