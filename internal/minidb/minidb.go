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
// Each statement's logic exists once, as a stepper (Exec.step) that runs
// until it needs a lock or CPU time and reports the need instead of
// blocking, and is driven two ways: DB.Lookup/Select/Update/Insert/
// TempSort block the calling free-form thread for each need, and
// Exec.Lookup/Select/... turn each need into a Coro step, so a
// run-to-completion database thread (TPC-W's mysqld) executes a query
// without a stack. exec.go has the design and a worked example.
package minidb

import (
	"fmt"

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
type Table struct {
	Name   string
	Engine Engine

	db       *DB
	rows     []Row
	byID     map[int64]int
	lock     *vclock.Lock
	rowLocks map[int64]*vclock.Lock

	// Profiler frame names for this table's operators, concatenated once
	// at creation instead of on every query (Select/Lookup run thousands
	// of times per experiment).
	frameSelect, frameLookup, frameUpdate, frameInsert string

	// buckets caches, per attribute, the row indexes grouped by value —
	// the equality index behind WhereAttr scans. Built lazily, dropped
	// whole on any write. Index slices hold row positions in row order,
	// so bucketed results match what a row-order scan would produce.
	buckets map[string]map[int64][]int
}

// bucket returns the cached value→row-indexes index for attr, building
// it on first use after a write.
func (t *Table) bucket(attr string) map[int64][]int {
	if b, ok := t.buckets[attr]; ok {
		return b
	}
	if t.buckets == nil {
		t.buckets = make(map[string]map[int64][]int)
	}
	b := make(map[int64][]int)
	for i := range t.rows {
		v := t.rows[i].Attr(attr)
		b[v] = append(b[v], i)
	}
	t.buckets[attr] = b
	return b
}

// invalidateCols drops the equality-index cache after a write.
func (t *Table) invalidateCols() { t.buckets = nil }

// DB is one database instance bound to a simulation and a CPU. Its
// statement methods (exec.go) are the blocking driver of the statement
// stepper: Lookup, say, is an Exec on the caller's stack stepped through
// "table lock, shared" (Thread.Lock), "LookupCost of CPU" (Probe.ComputeN)
// and done. A frame program gets the same statements from DB.NewExec.
type DB struct {
	Name string
	CPU  *vclock.CPU
	Cost CostModel

	sim      *vclock.Sim
	tables   map[string]*Table
	observer vclock.LockObserver
}

// New creates a database computing on cpu.
func New(sim *vclock.Sim, name string, cpu *vclock.CPU) *DB {
	return &DB{Name: name, CPU: cpu, Cost: DefaultCost, sim: sim, tables: make(map[string]*Table)}
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
		Name:        name,
		Engine:      engine,
		db:          db,
		byID:        make(map[int64]int),
		lock:        db.sim.NewLock(db.Name + "." + name),
		rowLocks:    make(map[int64]*vclock.Lock),
		frameSelect: "select_" + name,
		frameLookup: "lookup_" + name,
		frameUpdate: "update_" + name,
		frameInsert: "insert_" + name,
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

// AlterEngine switches the table's engine — the paper's MyISAM→InnoDB
// optimisation (§8.4).
func (t *Table) AlterEngine(e Engine) { t.Engine = e }

// Len reports the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// LoadRow appends a row without consuming simulated time (bulk loading
// during setup).
func (t *Table) LoadRow(r Row) {
	t.byID[r.ID] = len(t.rows)
	t.rows = append(t.rows, r)
	t.invalidateCols()
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
//     equality through a per-table equality index (value → row indexes,
//     rebuilt lazily after writes) — no per-row work at all;
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
