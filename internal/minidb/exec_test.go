package minidb

import (
	"fmt"
	"reflect"
	"testing"

	"whodunit/internal/cct"
	"whodunit/internal/profiler"
	"whodunit/internal/vclock"
)

// stmtResult is everything a statement hands back, whichever driver ran it.
type stmtResult struct {
	rows []Row
	row  Row
	ok   bool
}

// stmtCase is one statement, spelled for the blocking driver and for the
// frame driver.
type stmtCase struct {
	name     string
	blocking func(db *DB, pr *profiler.Probe, t *Table) stmtResult
	frames   func(x *Exec, c *vclock.Coro, t *Table, k vclock.Frame) vclock.Step
}

func selectCase(name string, pred Pred, opts SelectOpts) stmtCase {
	return stmtCase{
		name: name,
		blocking: func(db *DB, pr *profiler.Probe, t *Table) stmtResult {
			return stmtResult{rows: db.Select(pr, t, pred, opts)}
		},
		frames: func(x *Exec, c *vclock.Coro, t *Table, k vclock.Frame) vclock.Step {
			return x.Select(c, t, pred, opts, k)
		},
	}
}

var stmtCases = []stmtCase{
	{"lookup hit",
		func(db *DB, pr *profiler.Probe, t *Table) stmtResult {
			r, ok := db.Lookup(pr, t, 3)
			return stmtResult{row: r, ok: ok}
		},
		func(x *Exec, c *vclock.Coro, t *Table, k vclock.Frame) vclock.Step { return x.Lookup(c, t, 3, k) }},
	{"lookup miss",
		func(db *DB, pr *profiler.Probe, t *Table) stmtResult {
			r, ok := db.Lookup(pr, t, 9999)
			return stmtResult{row: r, ok: ok}
		},
		func(x *Exec, c *vclock.Coro, t *Table, k vclock.Frame) vclock.Step { return x.Lookup(c, t, 9999, k) }},
	selectCase("select everything", nil, SelectOpts{}),
	selectCase("select by predicate", func(r Row) bool { return r.Attr("sales")%3 == 0 }, SelectOpts{}),
	selectCase("select by predicate sorted", func(r Row) bool { return r.Attr("subject") != 1 }, SelectOpts{SortBy: "stock"}),
	selectCase("select where sorted limited", nil, SelectOpts{WhereAttr: "subject", WhereEquals: 2, SortBy: "sales", Limit: 7}),
	selectCase("select where no match", nil, SelectOpts{WhereAttr: "subject", WhereEquals: 77, SortBy: "sales", Limit: 7}),
	selectCase("select limited unsorted", nil, SelectOpts{Limit: 5}),
	selectCase("select sorted temp table", nil, SelectOpts{SortBy: "sales", TempSortRows: 4000, Limit: 10}),
	selectCase("select count only", nil, SelectOpts{WhereAttr: "subject", WhereEquals: 4, SortBy: "sales", Limit: 3, TempSortRows: 900, CountOnly: true}),
	{"update hit",
		func(db *DB, pr *profiler.Probe, t *Table) stmtResult {
			return stmtResult{ok: db.Update(pr, t, 3, func(r *Row) { r.AddAttr("stock", 5) })}
		},
		func(x *Exec, c *vclock.Coro, t *Table, k vclock.Frame) vclock.Step {
			return x.Update(c, t, 3, func(r *Row) { r.AddAttr("stock", 5) }, k)
		}},
	{"update missing row",
		func(db *DB, pr *profiler.Probe, t *Table) stmtResult {
			return stmtResult{ok: db.Update(pr, t, 9999, func(*Row) { panic("no such row") })}
		},
		func(x *Exec, c *vclock.Coro, t *Table, k vclock.Frame) vclock.Step {
			return x.Update(c, t, 9999, func(*Row) { panic("no such row") }, k)
		}},
	{"insert",
		func(db *DB, pr *profiler.Probe, t *Table) stmtResult {
			db.Insert(pr, t, Row{ID: 5000, Attrs: []Attr{{Name: "subject", Val: 2}}})
			return stmtResult{}
		},
		func(x *Exec, c *vclock.Coro, t *Table, k vclock.Frame) vclock.Step {
			return x.Insert(c, t, Row{ID: 5000, Attrs: []Attr{{Name: "subject", Val: 2}}}, k)
		}},
	{"temp sort",
		func(db *DB, pr *profiler.Probe, t *Table) stmtResult { db.TempSort(pr, 700); return stmtResult{} },
		func(x *Exec, c *vclock.Coro, t *Table, k vclock.Frame) vclock.Step { return x.TempSort(c, 700, k) }},
}

// driverOutcome is what one run of a case leaves behind.
type driverOutcome struct {
	res                 stmtResult
	finished            vclock.Time
	profile             []cct.FlatRecord
	samples, calls      int64
	acquired, contended int64
	waited              vclock.Duration
	rows                []Row // the table afterwards
	rowLocks            int
}

// runStmtCase runs tc at 1 ms on a 60-row table that a writer (row 3, 5 ms
// of CPU from time 0) and a full-scan reader (from time 0, queued behind
// the writer on MyISAM) are already working on, so the statement waits
// its turn for the table lock, or for row 3's, where it needs one.
func runStmtCase(tc stmtCase, engine Engine, mode profiler.Mode, frames bool) driverOutcome {
	s := vclock.New()
	cpu := s.NewCPU("dbcpu", 4) // so that locks, not cores, decide who waits
	db := New(s, "mysql", cpu)
	db.Cost.UpdateCost = 5 * vclock.Millisecond
	p := profiler.New("mysql", mode)
	p.Interval = 20 * vclock.Microsecond
	item := db.CreateTable("item", engine)
	loadItems(item, 60)

	contend := func(name string, body func(pr *profiler.Probe)) {
		s.Go(name, func(th *vclock.Thread) {
			pr := p.NewProbe(th, cpu)
			th.Data = pr
			body(pr)
		})
	}
	contend("writer", func(pr *profiler.Probe) { db.Update(pr, item, 3, func(r *Row) { r.AddAttr("stock", 1) }) })
	contend("reader", func(pr *profiler.Probe) { db.Select(pr, item, nil, SelectOpts{CountOnly: true, TempSortRows: 500}) })

	var out driverOutcome
	at := vclock.Time(vclock.Millisecond)
	if frames {
		s.GoCoroAt(at, "q", func(c *vclock.Coro, _ any) vclock.Step {
			pr := p.NewProbe(c.Thread(), cpu)
			c.Thread().Data = pr
			x := db.NewExec(pr)
			c.Defer(x.Abort)
			tok := pr.Enter("dispatch_query")
			return tc.frames(x, c, item, func(c *vclock.Coro, _ any) vclock.Step {
				pr.Exit(tok)
				out.res.rows = x.Rows()
				out.res.row, out.res.ok = x.Row()
				out.finished = c.Now()
				return c.End()
			})
		})
	} else {
		s.GoAt(at, "q", func(th *vclock.Thread) {
			pr := p.NewProbe(th, cpu)
			th.Data = pr
			tok := pr.Enter("dispatch_query")
			out.res = tc.blocking(db, pr, item)
			pr.Exit(tok)
			out.finished = th.Now()
		})
	}
	s.Run()
	s.Shutdown()
	out.profile = p.Merged().Flatten()
	out.samples, out.calls, _, _ = p.Stats()
	out.acquired, out.contended, out.waited = item.lock.Stats()
	out.rows, out.rowLocks = item.rows, len(item.rowLocks)
	return out
}

// TestStatementDriverParity: every statement kind finishes at the same
// virtual instant with the same result, the same profile (paths, samples
// and, under gprof, call counts) and the same lock statistics whether
// the blocking driver or the frame driver steps it, behind a contended
// lock, on both engines.
func TestStatementDriverParity(t *testing.T) {
	for _, engine := range []Engine{EngineMyISAM, EngineInnoDB} {
		for _, mode := range []profiler.Mode{profiler.ModeWhodunit, profiler.ModeInstrumented} {
			for _, tc := range stmtCases {
				name := fmt.Sprintf("%v/%v/%s", engine, mode, tc.name)
				want := runStmtCase(tc, engine, mode, false)
				got := runStmtCase(tc, engine, mode, true)
				if want.finished <= vclock.Time(vclock.Millisecond) || want.samples == 0 {
					t.Fatalf("%s: the blocking run finished at %v with %d samples; the case checks nothing", name, want.finished, want.samples)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: frame driver differs from blocking driver\n got  %+v\n want %+v", name, summary(got), summary(want))
				}
				if got.rowLocks != 0 {
					t.Errorf("%s: %d row locks left in the table after the run", name, got.rowLocks)
				}
			}
		}
	}
	// The contention is real: on MyISAM a lookup started at 1 ms waits out
	// the writer's 5 ms; on InnoDB it does not.
	my := runStmtCase(stmtCases[0], EngineMyISAM, profiler.ModeWhodunit, true)
	inno := runStmtCase(stmtCases[0], EngineInnoDB, profiler.ModeWhodunit, true)
	if my.finished < vclock.Time(5*vclock.Millisecond) || inno.finished >= vclock.Time(5*vclock.Millisecond) || my.contended == 0 {
		t.Errorf("lookup finished at %v on MyISAM (contended %d) and %v on InnoDB; want it to wait for the writer on MyISAM only", my.finished, my.contended, inno.finished)
	}
}

func summary(o driverOutcome) string {
	return fmt.Sprintf("finished=%v ok=%v row=%v rows=%d samples=%d calls=%d lock=%d/%d/%v profile=%v",
		o.finished, o.res.ok, o.res.row, len(o.res.rows), o.samples, o.calls, o.acquired, o.contended, o.waited, o.profile)
}

// TestRowLocksAreReclaimed: an InnoDB row's lock lives only while some
// thread holds or awaits it, so a run's worth of inserts leaves none
// behind — and a contended row's lock is the same lock for every waiter,
// kept until the last of them has released it.
func TestRowLocksAreReclaimed(t *testing.T) {
	e := newEnv()
	orders := e.db.CreateTable("orders", EngineInnoDB)
	e.go_("inserter", func(pr *profiler.Probe, th *vclock.Thread) {
		for i := 0; i < 10000; i++ {
			e.db.Insert(pr, orders, Row{ID: int64(i)})
			if n := len(orders.rowLocks); n != 0 {
				t.Fatalf("after insert %d: %d row locks retained", i, n)
			}
		}
	})
	e.s.Run()
	e.s.Shutdown()
	if orders.Len() != 10000 || len(orders.rowLocks) != 0 {
		t.Fatalf("%d rows inserted, %d row locks retained; want 10000 and 0", orders.Len(), len(orders.rowLocks))
	}

	e = newEnv()
	e.cpu = e.s.NewCPU("cpu4", 4)
	e.db.Cost.UpdateCost = 10 * vclock.Millisecond
	item := e.db.CreateTable("item", EngineInnoDB)
	loadItems(item, 10)
	var done [3]vclock.Time
	var seen [3]*vclock.Lock // row 1's lock as each writer released it
	for w := range done {
		e.go_(fmt.Sprintf("w%d", w), func(pr *profiler.Probe, th *vclock.Thread) {
			e.db.Update(pr, item, 1, func(*Row) { seen[w] = item.rowLocks[1] })
			done[w] = th.Now()
		})
	}
	// Midway through the second writer's turn the lock must still be
	// there: one holder, one waiter.
	var mid int
	e.s.At(vclock.Time(15*vclock.Millisecond), func() { mid = len(item.rowLocks) })
	e.s.Run()
	e.s.Shutdown()
	if !(done[0] < done[1] && done[1] < done[2]) {
		t.Fatalf("same-row writers did not serialize: %v", done)
	}
	if seen[0] == nil || seen[0] != seen[1] || seen[1] != seen[2] {
		t.Fatalf("the three writers of row 1 did not share one lock: %p %p %p", seen[0], seen[1], seen[2])
	}
	if mid != 1 || len(item.rowLocks) != 0 {
		t.Fatalf("row locks: %d while contended, %d at the end; want 1 and 0", mid, len(item.rowLocks))
	}
}
