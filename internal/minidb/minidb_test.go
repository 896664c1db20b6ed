package minidb

import (
	"maps"
	"slices"
	"testing"

	"whodunit/internal/profiler"
	"whodunit/internal/vclock"
)

// env builds a sim, db and a way to run a body with a probe.
type env struct {
	s   *vclock.Sim
	cpu *vclock.CPU
	db  *DB
	p   *profiler.Profiler
}

func newEnv() *env {
	s := vclock.New()
	// Two cores so that lock behaviour, not CPU queueing, decides who
	// waits in the engine tests.
	cpu := s.NewCPU("dbcpu", 2)
	return &env{s: s, cpu: cpu, db: New(s, "mysql", cpu), p: profiler.New("mysql", profiler.ModeWhodunit)}
}

func (e *env) go_(name string, body func(pr *profiler.Probe, th *vclock.Thread)) {
	e.s.Go(name, func(th *vclock.Thread) {
		pr := e.p.NewProbe(th, e.cpu)
		th.Data = pr
		body(pr, th)
	})
}

func (e *env) goAt(at vclock.Time, name string, body func(pr *profiler.Probe, th *vclock.Thread)) {
	e.s.GoAt(at, name, func(th *vclock.Thread) {
		pr := e.p.NewProbe(th, e.cpu)
		th.Data = pr
		body(pr, th)
	})
}

func loadItems(t *Table, n int) {
	for i := 0; i < n; i++ {
		t.LoadRow(Row{ID: int64(i), Attrs: []Attr{{Name: "subject", Val: int64(i % 5)}, {Name: "stock", Val: 10}, {Name: "sales", Val: int64(i)}}})
	}
}

func TestSelectFilters(t *testing.T) {
	e := newEnv()
	item := e.db.CreateTable("item", EngineMyISAM)
	loadItems(item, 100)
	var got []Row
	e.go_("q", func(pr *profiler.Probe, th *vclock.Thread) {
		got = e.db.Select(pr, item, func(r Row) bool { return r.Attr("subject") == 2 }, SelectOpts{})
	})
	e.s.Run()
	e.s.Shutdown()
	if len(got) != 20 {
		t.Fatalf("rows = %d, want 20", len(got))
	}
}

func TestSelectSortAndLimit(t *testing.T) {
	e := newEnv()
	item := e.db.CreateTable("item", EngineMyISAM)
	loadItems(item, 50)
	var got []Row
	e.go_("q", func(pr *profiler.Probe, th *vclock.Thread) {
		got = e.db.Select(pr, item, nil, SelectOpts{SortBy: "sales", Limit: 3})
	})
	e.s.Run()
	e.s.Shutdown()
	if len(got) != 3 || got[0].Attr("sales") != 49 || got[2].Attr("sales") != 47 {
		t.Fatalf("top rows = %+v", got)
	}
}

func TestLookupAndUpdate(t *testing.T) {
	e := newEnv()
	item := e.db.CreateTable("item", EngineInnoDB)
	loadItems(item, 10)
	e.go_("q", func(pr *profiler.Probe, th *vclock.Thread) {
		if ok := e.db.Update(pr, item, 7, func(r *Row) { r.SetAttr("stock", 99) }); !ok {
			t.Error("update missed row")
		}
		r, ok := e.db.Lookup(pr, item, 7)
		if !ok || r.Attr("stock") != 99 {
			t.Errorf("lookup after update: %+v %v", r, ok)
		}
		if _, ok := e.db.Lookup(pr, item, 12345); ok {
			t.Error("lookup of missing id succeeded")
		}
		if ok := e.db.Update(pr, item, 999, func(*Row) {}); ok {
			t.Error("update of missing id succeeded")
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestInsert(t *testing.T) {
	e := newEnv()
	tab := e.db.CreateTable("orders", EngineInnoDB)
	e.go_("q", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Insert(pr, tab, Row{ID: 1, Attrs: []Attr{{Name: "total", Val: 5}}})
	})
	e.s.Run()
	e.s.Shutdown()
	if tab.Len() != 1 {
		t.Fatalf("len = %d", tab.Len())
	}
}

func TestMyISAMWriterBlocksReaders(t *testing.T) {
	// A long MyISAM update must serialize a concurrent reader.
	e := newEnv()
	e.db.Cost.UpdateCost = 50 * vclock.Millisecond
	item := e.db.CreateTable("item", EngineMyISAM)
	loadItems(item, 10)
	var readerDone vclock.Time
	e.go_("writer", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Update(pr, item, 1, func(r *Row) {})
	})
	e.goAt(vclock.Time(vclock.Millisecond), "reader", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Lookup(pr, item, 2)
		readerDone = th.Now()
	})
	e.s.Run()
	e.s.Shutdown()
	if readerDone < vclock.Time(50*vclock.Millisecond) {
		t.Fatalf("reader finished at %v, before writer released the table lock", readerDone)
	}
}

func TestInnoDBReadersUnblocked(t *testing.T) {
	// Same scenario with InnoDB: the reader must not wait for the writer.
	e := newEnv()
	e.db.Cost.UpdateCost = 50 * vclock.Millisecond
	item := e.db.CreateTable("item", EngineInnoDB)
	loadItems(item, 10)
	var readerDone vclock.Time
	e.go_("writer", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Update(pr, item, 1, func(r *Row) {})
	})
	e.goAt(vclock.Time(vclock.Millisecond), "reader", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Lookup(pr, item, 2)
		readerDone = th.Now()
	})
	e.s.Run()
	e.s.Shutdown()
	// Reader needs only its own lookup (plus CPU queueing behind the
	// writer's CPU demand on the single core — so give it a bound well
	// under the lock-serialized 50ms+).
	if readerDone >= vclock.Time(50*vclock.Millisecond) {
		t.Fatalf("InnoDB reader waited for the writer: done at %v", readerDone)
	}
}

func TestInnoDBRowLocksIndependent(t *testing.T) {
	// Two writers on different rows proceed concurrently; on the same row
	// they serialize.
	e := newEnv()
	e.cpu = e.s.NewCPU("cpu4", 4)
	e.db.CPU = e.cpu
	e.db.Cost.UpdateCost = 20 * vclock.Millisecond
	item := e.db.CreateTable("item", EngineInnoDB)
	loadItems(item, 10)
	var t1, t2, t3 vclock.Time
	e.go_("w1", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Update(pr, item, 1, func(r *Row) {})
		t1 = th.Now()
	})
	e.go_("w2", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Update(pr, item, 2, func(r *Row) {})
		t2 = th.Now()
	})
	e.go_("w3", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Update(pr, item, 1, func(r *Row) {}) // same row as w1
		t3 = th.Now()
	})
	e.s.Run()
	e.s.Shutdown()
	if t1 != t2 {
		t.Fatalf("different-row writers should be concurrent: %v vs %v", t1, t2)
	}
	if t3 <= t1 {
		t.Fatalf("same-row writer should serialize: w1=%v w3=%v", t1, t3)
	}
}

func TestAlterEngineSwitchesLocking(t *testing.T) {
	e := newEnv()
	e.db.Cost.UpdateCost = 50 * vclock.Millisecond
	item := e.db.CreateTable("item", EngineMyISAM)
	loadItems(item, 10)
	item.Engine = EngineInnoDB
	var readerDone vclock.Time
	e.go_("writer", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Update(pr, item, 1, func(r *Row) {})
	})
	e.goAt(vclock.Time(vclock.Millisecond), "reader", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.Lookup(pr, item, 2)
		readerDone = th.Now()
	})
	e.s.Run()
	e.s.Shutdown()
	if readerDone >= vclock.Time(50*vclock.Millisecond) {
		t.Fatal("reader still blocked after engine switch")
	}
}

func TestProfilerSeesQueryFrames(t *testing.T) {
	e := newEnv()
	item := e.db.CreateTable("item", EngineMyISAM)
	loadItems(item, 2000)
	e.go_("q", func(pr *profiler.Probe, th *vclock.Thread) {
		defer pr.Exit(pr.Enter("dispatch_query"))
		e.db.Select(pr, item, nil, SelectOpts{SortBy: "sales"})
	})
	e.s.Run()
	e.s.Shutdown()
	m := e.p.Merged()
	if _, ok := m.Find("dispatch_query", "select_item", "sort_rows"); !ok {
		t.Fatal("sort frame missing from profile")
	}
	if m.Total() == 0 {
		t.Fatal("no samples collected")
	}
}

func TestTempSortCharges(t *testing.T) {
	e := newEnv()
	e.go_("q", func(pr *profiler.Probe, th *vclock.Thread) {
		e.db.TempSort(pr, 10000)
	})
	e.s.Run()
	e.s.Shutdown()
	if e.cpu.Busy() == 0 {
		t.Fatal("TempSort consumed no CPU")
	}
}

func TestMissingTablePanics(t *testing.T) {
	e := newEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.db.Table("nope")
}

// TestRowsSharingAnAttrArrayStayIsolated: rows bulk-loaded from
// capacity-capped windows of one array are independent. Adding an
// attribute to one row through SetAttr must copy its window rather than
// append over the next row's, and AddAttr of an attribute it has writes
// only its own; the next row reads as loaded through Lookup, a scan and
// a WhereAttr select whose index was built before the writes.
func TestRowsSharingAnAttrArrayStayIsolated(t *testing.T) {
	const n, k, hit = 8, 2, 3
	e := newEnv()
	tab := e.db.CreateTable("item", EngineInnoDB)
	a := make([]Attr, k*n)
	for i := 0; i < n; i++ {
		w := a[k*i : k*i+k : k*i+k]
		w[0] = Attr{Name: "subject", Val: int64(i % 3)}
		w[1] = Attr{Name: "stock", Val: int64(10 + i)}
		tab.LoadRow(Row{ID: int64(i), Attrs: w})
	}
	loaded := func(r Row) bool {
		i := r.ID
		return len(r.Attrs) == k && r.Attr("subject") == i%3 && r.Attr("stock") == 10+i && r.Attr("color") == 0
	}
	subjectOf := int64((hit + 1) % 3)
	e.go_("q", func(pr *profiler.Probe, th *vclock.Thread) {
		before := e.db.Select(pr, tab, nil, SelectOpts{WhereAttr: "subject", WhereEquals: subjectOf})
		if !e.db.Update(pr, tab, hit, func(r *Row) {
			r.SetAttr("color", 7)
			r.AddAttr("stock", 5)
		}) {
			t.Fatal("update missed its row")
		}
		r, ok := e.db.Lookup(pr, tab, hit)
		if !ok || r.Attr("subject") != hit%3 || r.Attr("stock") != 15+hit || r.Attr("color") != 7 {
			t.Errorf("updated row = %+v %v", r, ok)
		}
		next, ok := e.db.Lookup(pr, tab, hit+1)
		if !ok || !loaded(next) {
			t.Errorf("row %d after an update of row %d = %+v, want it as loaded", hit+1, hit, next)
		}
		for _, r := range e.db.Select(pr, tab, nil, SelectOpts{}) {
			if r.ID != hit && !loaded(r) {
				t.Errorf("scan: row %d = %+v, want it as loaded", r.ID, r)
			}
		}
		after := e.db.Select(pr, tab, nil, SelectOpts{WhereAttr: "subject", WhereEquals: subjectOf})
		if !slices.EqualFunc(before, after, func(x, y Row) bool { return x.ID == y.ID }) {
			t.Errorf("select where subject = %d: %d rows before the update, %d after", subjectOf, len(before), len(after))
		}
		for _, r := range after {
			if r.Attr("subject") != subjectOf || (r.ID != hit && !loaded(r)) {
				t.Errorf("select where subject = %d returned row %+v", subjectOf, r)
			}
		}
		if !slices.ContainsFunc(after, func(r Row) bool { return r.ID == hit+1 }) {
			t.Errorf("select where subject = %d lost row %d", subjectOf, hit+1)
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

// TestLoadRowsAllocatesOnce: a bulk load of n rows into a fresh table
// allocates its row array once, where n LoadRows would grow it at every
// doubling, and leaves the table as loading the rows one LoadRow at a
// time does, index entries of out-of-place ids included.
func TestLoadRowsAllocatesOnce(t *testing.T) {
	const n = 5000
	e := newEnv()
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{ID: int64(i)}
	}
	// AllocsPerRun calls the function once more than it is asked to.
	tabs := make([]*Table, 11)
	for i := range tabs {
		tabs[i] = e.db.CreateTable(string(rune('a'+i)), EngineInnoDB)
	}
	next := 0
	if allocs := testing.AllocsPerRun(len(tabs)-1, func() {
		tabs[next].LoadRows(rows)
		next++
	}); allocs != 1 {
		t.Fatalf("LoadRows of %d rows into a fresh table: %v allocations, want 1", n, allocs)
	}
	for _, tab := range tabs {
		if tab.Len() != n || cap(tab.rows) < n {
			t.Fatalf("table %s: %d rows with capacity %d, want %d", tab.Name, tab.Len(), cap(tab.rows), n)
		}
	}

	rows[7].ID, rows[9].ID = 9, 100_000
	bulk, one := e.db.CreateTable("bulk", EngineMyISAM), e.db.CreateTable("one", EngineMyISAM)
	bulk.LoadRows(rows)
	for _, r := range rows {
		one.LoadRow(r)
	}
	if !slices.EqualFunc(bulk.rows, one.rows, func(x, y Row) bool { return x.ID == y.ID }) || !maps.Equal(bulk.byID, one.byID) {
		t.Fatalf("LoadRows left rows or index entries %v that LoadRow one at a time does not (%v)", bulk.byID, one.byID)
	}
}
