// Package minidb is the database substrate standing in for MySQL 4.0 in
// the TPC-W case study (§8.4). It provides tables with two storage
// engines that differ exactly where the paper's optimisation story needs
// them to:
//
//   - EngineMyISAM supports only table-wide locking: reads take the table
//     lock shared, writes take it exclusive — so one row update blocks
//     every reader of the table;
//   - EngineInnoDB supports row-level locking with non-locking consistent
//     reads: readers take no lock at all, writers lock only their row.
//
// Query execution consumes CPU according to a calibrated cost model and
// is instrumented through profiler probes, so the database's CPU profile
// per transaction context (Table 1) and its lock crosstalk fall out of
// the same machinery as every other stage.
//
// Each statement's logic exists once, as a frame (Exec.advance) that
// takes a Coro step for each lock or CPU demand and resumes itself, so a
// run-to-completion database thread (TPC-W's mysqld) executes a query
// without a stack (Exec.Lookup/Select/...). DB.Lookup/Select/Update/
// Insert/TempSort are the same frame awaited by the calling free-form
// thread. exec.go has the design and a worked example.
package minidb

import (
	"fmt"
	"slices"

	"whodunit/internal/cct"
	"whodunit/internal/vclock"
)

// Engine selects a table's locking strategy.
type Engine uint8

const (
	// EngineMyISAM: table-level locking only.
	EngineMyISAM Engine = iota
	// EngineInnoDB: row-level write locks, lock-free consistent reads.
	EngineInnoDB
)

func (e Engine) String() string {
	if e == EngineInnoDB {
		return "InnoDB"
	}
	return "MyISAM"
}

// Attr is one named integer attribute of a row.
type Attr struct {
	Name string
	Val  int64
}

// Row is one table row: an id plus integer attributes (strings are
// modelled as interned codes — the workload only ever compares them).
// Attributes are a small slice, not a map: rows carry at most a handful,
// a linear scan beats a map lookup at that size, and bulk-loading tens
// of thousands of rows per experiment run was allocating a map (and its
// hash state) per row — the single largest allocation source in the
// TPC-W runs.
type Row struct {
	ID    int64
	Attrs []Attr
}

// Attr returns the named attribute (0 when absent).
func (r Row) Attr(name string) int64 {
	for i := range r.Attrs {
		if r.Attrs[i].Name == name {
			return r.Attrs[i].Val
		}
	}
	return 0
}

// SetAttr sets the named attribute, adding it if absent.
func (r *Row) SetAttr(name string, v int64) {
	for i := range r.Attrs {
		if r.Attrs[i].Name == name {
			r.Attrs[i].Val = v
			return
		}
	}
	r.Attrs = append(r.Attrs, Attr{Name: name, Val: v})
}

// AddAttr adds delta to the named attribute (treating absent as 0).
func (r *Row) AddAttr(name string, delta int64) {
	for i := range r.Attrs {
		if r.Attrs[i].Name == name {
			r.Attrs[i].Val += delta
			return
		}
	}
	r.Attrs = append(r.Attrs, Attr{Name: name, Val: delta})
}

// CostModel gives the CPU demand of query operators, per row.
type CostModel struct {
	ScanPerRow   vclock.Duration // sequential scan, per row examined
	SortPerCmp   vclock.Duration // sort, per comparison (n log2 n total)
	LookupCost   vclock.Duration // index lookup, per access
	UpdateCost   vclock.Duration // in-place row update
	InsertCost   vclock.Duration // row insert
	TempPerRow   vclock.Duration // temp-table materialisation, per row
	AggPerRow    vclock.Duration // aggregation, per input row
	ReturnPerRow vclock.Duration // result marshalling, per returned row
}

// DefaultCost is calibrated so the TPC-W browsing mix reproduces Table
// 1's CPU split (BestSellers and SearchResult dominating).
var DefaultCost = CostModel{
	ScanPerRow:   800 * vclock.Nanosecond,
	SortPerCmp:   150 * vclock.Nanosecond,
	LookupCost:   60 * vclock.Microsecond,
	UpdateCost:   250 * vclock.Microsecond,
	InsertCost:   120 * vclock.Microsecond,
	TempPerRow:   2 * vclock.Microsecond,
	AggPerRow:    1 * vclock.Microsecond,
	ReturnPerRow: 4 * vclock.Microsecond,
}

// Table is a named collection of rows under one engine.
//
// The primary key is positional where it can be: a row loaded at the
// position equal to its id (a bulk load of ids 0..n-1 in order) is found
// by indexing rows, with no index entry at all. byID holds only the ids
// for which that fails — rows placed elsewhere, and a later duplicate of
// a positionally placed id, which shadows it ("the latest LoadRow wins").
// Which case a row is in is read off the data, so a dense table never
// touches a hash and a sparse one (TPC-W's orders, keyed by
// item*100000+thread) pays for one exactly as before. rowLocks stays a
// map: its keys are the writers in flight, not the rows.
type Table struct {
	Name   string
	Engine Engine

	db       *DB
	rows     []Row
	byID     map[int64]int // id -> position, only where rows[id].ID == id does not answer; read through index alone
	lock     *vclock.Lock
	rowLocks map[int64]*vclock.Lock

	// Profiler frames of this table's statements: the names are
	// concatenated once at creation, and interned once per frame table
	// rather than hashed on every statement.
	frames frameSet

	// eq caches, per attribute, the row positions grouped by value — the
	// equality index behind WhereAttr scans. Built lazily; a write drops
	// or extends only the indexes it touches (see Update and LoadRow).
	// Positions are kept in row order, so bucketed results match what a
	// row-order scan would produce. A handful of attributes at most, so a
	// slice scanned by name.
	eq []eqIndex
}

// eqIndex is the equality index of one attribute: value -> row positions.
type eqIndex struct {
	attr  string
	byVal map[int64][]int
	was   int64 // update's scratch: the attribute's value in the row before fn
}

// The statement frames of a Table, by position in its frameSet.
const (
	frameSelect = iota
	frameLookup
	frameUpdate
	frameInsert
)

// The operator frames of a DB, by position in its frameSet.
const (
	frameScan = iota
	frameSort
	frameTempSort
)

// frameSet is a fixed list of frame names with their FrameIDs in the
// frame table that last asked. FrameIDs mean something only relative to
// the table that issued them, so the ids are cached beside that table's
// pointer and re-interned when a probe of another stage comes by.
type frameSet struct {
	names []string
	ft    *cct.FrameTable
	ids   []cct.FrameID
}

func newFrameSet(names ...string) frameSet {
	return frameSet{names: names, ids: make([]cct.FrameID, len(names))}
}

// in returns the set's FrameIDs as issued by ft.
func (f *frameSet) in(ft *cct.FrameTable) []cct.FrameID {
	if f.ft != ft {
		f.ft = ft
		for i, name := range f.names {
			f.ids[i] = ft.ID(name)
		}
	}
	return f.ids
}

// index returns the position of the row with the given primary key.
func (t *Table) index(id int64) (int, bool) {
	if len(t.byID) > 0 {
		if i, ok := t.byID[id]; ok {
			return i, true
		}
	}
	if uint64(id) < uint64(len(t.rows)) && t.rows[id].ID == id {
		return int(id), true
	}
	return 0, false
}

// bucket returns the row positions whose attr equals v, in row order,
// building attr's index on first use.
func (t *Table) bucket(attr string, v int64) []int {
	for i := range t.eq {
		if t.eq[i].attr == attr {
			return t.eq[i].byVal[v]
		}
	}
	b := make(map[int64][]int)
	for i := range t.rows {
		w := t.rows[i].Attr(attr)
		b[w] = append(b[w], i)
	}
	t.eq = append(t.eq, eqIndex{attr: attr, byVal: b})
	return b[v]
}

// update applies fn to the row at position i and drops the equality
// index of each attribute whose value fn changed there — and of no other:
// AdminConfirm raising one item's cost must not cost the next
// SearchResult a rebuild of the subject index over the whole table. fn
// may not change the primary key; the positional index and byID would
// both keep answering the old id.
func (t *Table) update(i int, fn func(*Row)) {
	r := &t.rows[i]
	id := r.ID
	for k := range t.eq {
		t.eq[k].was = r.Attr(t.eq[k].attr)
	}
	fn(r)
	if r.ID != id {
		panic(fmt.Sprintf("minidb: update of %s.%s changed the primary key of row %d to %d", t.db.Name, t.Name, id, r.ID))
	}
	t.eq = slices.DeleteFunc(t.eq, func(ix eqIndex) bool { return r.Attr(ix.attr) != ix.was })
}

// DB is one database instance bound to a simulation and a CPU. Its
// statement methods (exec.go) block the calling free-form thread: Lookup,
// say, awaits an Exec's frame through "table lock, shared", "LookupCost
// of CPU" and done. A frame program gets the same statements from
// DB.NewExec.
type DB struct {
	Name string
	CPU  *vclock.CPU
	Cost CostModel

	sim      *vclock.Sim
	tables   map[string]*Table
	observer vclock.LockObserver
	frames   frameSet // scan_rows, sort_rows, temp_table_sort
}

// New creates a database computing on cpu.
func New(sim *vclock.Sim, name string, cpu *vclock.CPU) *DB {
	return &DB{Name: name, CPU: cpu, Cost: DefaultCost, sim: sim, tables: make(map[string]*Table),
		frames: newFrameSet("scan_rows", "sort_rows", "temp_table_sort")}
}

// SetLockObserver attaches obs (e.g. a crosstalk monitor) to every
// current and future lock in the database.
func (db *DB) SetLockObserver(obs vclock.LockObserver) {
	db.observer = obs
	for _, t := range db.tables {
		t.lock.Observer = obs
		for _, rl := range t.rowLocks {
			rl.Observer = obs
		}
	}
}

// CreateTable adds an empty table with the given engine.
func (db *DB) CreateTable(name string, engine Engine) *Table {
	t := &Table{
		Name:     name,
		Engine:   engine,
		db:       db,
		lock:     db.sim.NewLock(db.Name + "." + name),
		rowLocks: make(map[int64]*vclock.Lock),
		frames:   newFrameSet("select_"+name, "lookup_"+name, "update_"+name, "insert_"+name),
	}
	t.lock.Observer = db.observer
	db.tables[name] = t
	return t
}

// Table looks up a table by name; it panics if missing (schema errors are
// programming errors in this codebase).
func (db *DB) Table(name string) *Table {
	t, ok := db.tables[name]
	if !ok {
		panic(fmt.Sprintf("minidb: no table %q in %s", name, db.Name))
	}
	return t
}

// Len reports the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// LoadRow appends a row without consuming simulated time (bulk loading
// during setup). A row whose id equals its position needs no index entry
// (and retires the entry of an earlier row with that id); any other gets
// one, which also shadows an earlier positional row of the same id. The
// new position is the largest, so appending it to each cached equality
// index keeps the index in row order — cheaper than dropping what the
// next WhereAttr select would rebuild over the whole table. The table
// keeps r.Attrs as given, so a caller may share one backing array
// between rows only by passing capacity-capped windows (a[k*i:k*i+k:k*i+k]):
// SetAttr or AddAttr of a new attribute then copies the row's window
// instead of appending over the next row's.
func (t *Table) LoadRow(r Row) {
	pos := len(t.rows)
	switch {
	case r.ID != int64(pos):
		if t.byID == nil {
			t.byID = make(map[int64]int)
		}
		t.byID[r.ID] = pos
	case len(t.byID) > 0:
		delete(t.byID, r.ID)
	}
	t.rows = append(t.rows, r)
	for k := range t.eq {
		b := t.eq[k].byVal
		v := r.Attr(t.eq[k].attr)
		b[v] = append(b[v], pos)
	}
}

// LoadRows loads rows in order as LoadRow does, after growing the
// table's row array once to hold them all, so a bulk load of n rows
// allocates the array once rather than at every doubling.
func (t *Table) LoadRows(rows []Row) {
	if n := len(t.rows) + len(rows); n > cap(t.rows) {
		t.rows = append(make([]Row, 0, n), t.rows...)
	}
	for _, r := range rows {
		t.LoadRow(r)
	}
}

// TableLock returns the table-wide lock MyISAM statements take (InnoDB
// statements never touch it), so a test can ask who holds it.
func (t *Table) TableLock() *vclock.Lock { return t.lock }

// rowLock returns the InnoDB lock of row id, creating it on first use.
// A row's lock lives only while some thread holds or awaits it (see
// dropRowLock), so the map follows the writers in flight, not the row
// ids ever written.
func (t *Table) rowLock(id int64) *vclock.Lock {
	l, ok := t.rowLocks[id]
	if !ok {
		l = t.db.sim.NewLock(fmt.Sprintf("%s.%s[%d]", t.db.Name, t.Name, id))
		l.Observer = t.db.observer
		t.rowLocks[id] = l
	}
	return l
}

// dropRowLock forgets row id's lock l once a release has left it with
// no holder and no waiter. No report reads a row lock's name or Stats,
// so the next writer of the row starting from a fresh lock changes
// nothing observable.
func (t *Table) dropRowLock(id int64, l *vclock.Lock) {
	if l.Idle() {
		delete(t.rowLocks, id)
	}
}

// Pred filters rows; a nil Pred matches everything.
type Pred func(Row) bool

// SelectOpts modifies Select: SortBy triggers an n·log n sort by the
// named attribute (descending), Limit truncates the result, and
// TempSortRows > 0 materialises and sorts that many rows into a temporary
// table *while the read lock is held* — the heavy query shape of
// BestSellers / SearchResult / AdminConfirm (§8.4), and the reason those
// queries hold their table locks long enough to cause crosstalk.
//
// Two execution-shape options keep the modelled cost identical while
// skipping work the caller does not want:
//
//   - WhereAttr/WhereEquals (with a nil Pred) filter by attribute
//     equality through a per-table equality index (value → row
//     positions, built lazily, dropped only by an update that changes
//     the attribute) — no per-row work at all;
//   - CountOnly charges exactly the CPU demand, takes exactly the locks
//     and emits exactly the profiler frames the full query would, but
//     materialises no result rows (callers that only want the query's
//     cost and contention — the TPC-W servlets — drop ~half their
//     allocation and sort work this way).
type SelectOpts struct {
	SortBy       string
	Limit        int
	TempSortRows int

	// WhereAttr, when non-empty and Pred is nil, selects rows whose named
	// attribute equals WhereEquals.
	WhereAttr   string
	WhereEquals int64

	// CountOnly suppresses result materialisation; Select returns nil.
	// CPU demand, lock hold times and profiler frames are unchanged.
	CountOnly bool
}

// log2 returns ceil(log2(n)) for cost computation, minimum 1.
func log2(n int) int64 {
	l := int64(1)
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
