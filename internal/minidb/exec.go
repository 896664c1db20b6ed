package minidb

import (
	"slices"

	"whodunit/internal/cct"
	"whodunit/internal/profiler"
	"whodunit/internal/vclock"
)

// Statement execution. What a statement does — the probe frames it
// enters and exits, the engine's read or write lock, each CPU demand with
// its counted calls, and the row work in between — is written once, in
// Exec.advance, as a frame that runs until the statement needs something
// only the scheduler can give and then takes that Coro step, naming
// itself as the continuation: Coro.Lock for the lock, Probe.ComputeNStep
// for a CPU demand, or, when the statement is done, a Goto to the
// caller's k. The continuation is the Exec's pc, not a stack, so a
// run-to-completion database thread (Exec.Lookup/Select/...) executes a
// statement without a stack to come back to, and the blocking
// DB.Lookup/Select/Update/Insert/TempSort are the same frame awaited by
// the calling free-form thread (vclock.Thread.Await).
//
// Lookup on a MyISAM table, as the worked example. advance enters
// lookup_<table> and locks the table shared; when the lock is granted it
// runs again and charges LookupCost of CPU with no counted calls; when
// that is served it finds the row, releases the lock, exits the frame
// and continues at k. A statement therefore finishes at the same virtual
// instant, with the same samples and the same lock statistics, whichever
// kind of thread runs it.

type stmtKind uint8

const (
	stmtNone stmtKind = iota // nothing in progress
	stmtLookup
	stmtSelect
	stmtUpdate
	stmtInsert
	stmtTempSort
)

// Positions of a statement's continuation.
const (
	pcBegin  = iota // enter the statement frame, take the engine's lock
	pcLocked        // Select: go scan; the others: charge their one cost
	pcApply         // the cost is served: do the row work
	pcEnd           // release the lock, exit the frame

	selScan     // charge the sequential scan
	selFilter   // filter; charge the sort if there is one
	selSort     // sort what was materialised
	selTemp     // charge the temp-table sort if there is one
	selTempDone // leave its frame
	selReturn   // apply the limit, charge result marshalling
)

// Exec executes statements, one at a time, for the thread behind one
// probe. The blocking DB methods use one per call; a run-to-completion
// thread makes one with DB.NewExec where its program begins, registers
// Abort as its Coro.Defer cleanup, and issues each statement with
// Lookup/Select/Update/Insert/TempSort.
type Exec struct {
	db *DB
	pr *profiler.Probe

	// The statement.
	kind  stmtKind
	frame cct.FrameID // its probe frame, as pr's stage interned it
	t     *Table
	id    int64 // Lookup and Update key, Insert's row id
	pred  Pred
	opts  SelectOpts
	fn    func(*Row) // Update
	ins   Row        // Insert
	n     int        // TempSort's row count

	// Its progress.
	pc         int
	tok, inner int          // probe tokens: the statement's frame, an operator's inside it
	held       *vclock.Lock // requested and not yet released
	matched    int

	// Its result.
	row  Row // Lookup
	ok   bool
	rows []Row

	// Where to continue when done, and advance bound once.
	k, advanceF vclock.Frame
}

// NewExec returns an executor charging pr's thread.
func (db *DB) NewExec(pr *profiler.Probe) *Exec {
	x := &Exec{db: db, pr: pr}
	x.advanceF = x.advance
	return x
}

func (x *Exec) begin(kind stmtKind, frame cct.FrameID, t *Table, id int64) {
	x.kind, x.frame, x.t, x.id = kind, frame, t, id
	x.pc, x.matched, x.row, x.ok, x.rows = pcBegin, 0, Row{}, false, nil
}

// lockFor is the engine's locking rule: MyISAM reads share the table
// lock and writes take it exclusively; InnoDB reads take nothing
// (non-locking consistent reads) and writes lock their row.
func (x *Exec) lockFor() (*vclock.Lock, vclock.LockMode) {
	switch x.kind {
	case stmtLookup, stmtSelect:
		if x.t.Engine == EngineMyISAM {
			return x.t.lock, vclock.Shared
		}
	case stmtUpdate, stmtInsert:
		if x.t.Engine == EngineMyISAM {
			return x.t.lock, vclock.Exclusive
		}
		return x.t.rowLock(x.id), vclock.Exclusive
	}
	return nil, vclock.Shared
}

// advance is the statement as a frame: it runs the statement up to its
// next lock or CPU demand and takes that step, resuming here, and
// continues at x.k once the statement is done.
func (x *Exec) advance(c *vclock.Coro, _ any) vclock.Step {
	db, pr, t := x.db, x.pr, x.t
	for {
		switch x.pc {
		case pcBegin:
			x.tok = pr.EnterID(x.frame)
			x.pc = pcLocked
			if l, mode := x.lockFor(); l != nil {
				x.held = l
				return c.Lock(l, mode, x.advanceF)
			}
		case pcLocked:
			x.pc = pcApply
			switch x.kind {
			case stmtSelect:
				x.pc = selScan
			case stmtLookup:
				return x.compute(c, db.Cost.LookupCost, 0)
			case stmtUpdate:
				return x.compute(c, db.Cost.UpdateCost, 0)
			case stmtInsert:
				return x.compute(c, db.Cost.InsertCost, 0)
			case stmtTempSort:
				return x.compute(c, db.tempSortCost(x.n), x.n)
			}
		case pcApply:
			switch x.kind {
			case stmtLookup:
				var idx int
				if idx, x.ok = t.index(x.id); x.ok {
					x.row = t.rows[idx]
				}
			case stmtUpdate:
				var idx int
				if idx, x.ok = t.index(x.id); x.ok {
					t.update(idx, x.fn)
				}
			case stmtInsert:
				t.LoadRow(x.ins)
			}
			x.pc = pcEnd

		case selScan:
			x.inner = pr.EnterID(x.op(frameScan))
			x.pc = selFilter
			return x.compute(c, vclock.Duration(len(t.rows))*db.Cost.ScanPerRow, len(t.rows))
		case selFilter:
			pr.Exit(x.inner)
			x.filter()
			x.pc = selTemp
			if x.opts.SortBy != "" && x.matched > 1 {
				x.inner = pr.EnterID(x.op(frameSort))
				x.pc = selSort
				return x.compute(c, vclock.Duration(int64(x.matched)*log2(x.matched))*db.Cost.SortPerCmp, x.matched)
			}
		case selSort:
			pr.Exit(x.inner)
			if !x.opts.CountOnly {
				sortDescending(x.rows, x.opts.SortBy)
			}
			x.pc = selTemp
		case selTemp:
			x.pc = selReturn
			if n := x.opts.TempSortRows; n > 0 {
				x.inner = pr.EnterID(x.op(frameTempSort))
				x.pc = selTempDone
				return x.compute(c, db.tempSortCost(n), n)
			}
		case selTempDone:
			pr.Exit(x.inner)
			x.pc = selReturn
		case selReturn:
			if lim := x.opts.Limit; lim > 0 && x.matched > lim {
				x.matched = lim
				if !x.opts.CountOnly {
					x.rows = x.rows[:lim]
				}
			}
			x.pc = pcEnd
			return x.compute(c, vclock.Duration(x.matched)*db.Cost.ReturnPerRow, 0)

		default: // pcEnd
			x.end()
			return c.Goto(x.k)
		}
	}
}

// compute charges d of CPU with calls counted procedure calls, resuming
// the statement once it is served.
func (x *Exec) compute(c *vclock.Coro, d vclock.Duration, calls int) vclock.Step {
	return x.pr.ComputeNStep(c, d, calls, x.advanceF)
}

// stmt and op return a statement frame of t and an operator frame of the
// database, as pr's stage interned them.
func (x *Exec) stmt(t *Table, frame int) cct.FrameID {
	return t.frames.in(x.pr.Profiler().Frames())[frame]
}

func (x *Exec) op(frame int) cct.FrameID {
	return x.db.frames.in(x.pr.Profiler().Frames())[frame]
}

// filter is Select's row work after the scan. The three shapes
// (everything, attribute equality, arbitrary predicate) agree on
// matched; only the non-CountOnly ones materialise rows.
func (x *Exec) filter() {
	t, opts := x.t, &x.opts
	switch {
	case x.pred == nil && opts.WhereAttr != "":
		idxs := t.bucket(opts.WhereAttr, opts.WhereEquals)
		x.matched = len(idxs)
		if !opts.CountOnly && x.matched > 0 {
			x.rows = make([]Row, 0, x.matched)
			for _, i := range idxs {
				x.rows = append(x.rows, t.rows[i])
			}
		}
	case x.pred == nil:
		x.matched = len(t.rows)
		if !opts.CountOnly {
			x.rows = slices.Clone(t.rows)
		}
	default:
		for _, r := range t.rows {
			if x.pred(r) {
				x.matched++
				if !opts.CountOnly {
					x.rows = append(x.rows, r)
				}
			}
		}
	}
}

// sortDescending is decorate-sort-undecorate: extract each row's sort key
// once and sort descending with a reflection-free generic stable sort —
// no attribute scan per comparison, no reflect.Swapper per swap
// (sort.SliceStable cost the old Select most of its time).
func sortDescending(rows []Row, key string) {
	type decorated struct {
		key int64
		row Row
	}
	dec := make([]decorated, len(rows))
	for i, r := range rows {
		dec[i] = decorated{key: r.Attr(key), row: r}
	}
	slices.SortStableFunc(dec, func(a, b decorated) int {
		switch {
		case a.key > b.key:
			return -1
		case a.key < b.key:
			return 1
		}
		return 0
	})
	for i := range dec {
		rows[i] = dec[i].row
	}
}

// tempSortCost is the demand of materialising n rows into a temporary
// table, aggregating and sorting them.
func (db *DB) tempSortCost(n int) vclock.Duration {
	return vclock.Duration(n)*(db.Cost.TempPerRow+db.Cost.AggPerRow) +
		vclock.Duration(int64(n)*log2(n))*db.Cost.SortPerCmp
}

// end releases the statement's lock, if it took one, and exits its frame
// (and any operator frame still open inside it).
func (x *Exec) end() {
	if l := x.held; l != nil {
		x.held = nil
		x.pr.Thread().Unlock(l)
		if l != x.t.lock {
			x.t.dropRowLock(x.id, l)
		}
	}
	x.pr.Exit(x.tok)
	x.kind = stmtNone
}

// Abort abandons the statement in progress, if there is one: the lock is
// released and the probe frames are popped, which is what the deferred
// unlock and Exit of a blocking statement body do when its thread is
// killed or shut down mid-query. Without it a killed table-lock holder
// would wedge every later statement on the table. It is the cleanup a
// frame program registers with Coro.Defer, and what the blocking DB
// methods defer.
func (x *Exec) Abort() {
	if x.kind == stmtNone {
		return
	}
	if x.held != nil && !x.held.HeldBy(x.pr.Thread()) {
		// Killed while still queued for the lock: there is nothing to
		// release, and the lock drops a dead waiter by itself.
		x.held = nil
	}
	x.end()
}

// The statements. Each setter below names a statement's frame, table and
// arguments once, for the frame methods and the blocking DB methods.

func (x *Exec) lookup(t *Table, id int64) { x.begin(stmtLookup, x.stmt(t, frameLookup), t, id) }

func (x *Exec) sel(t *Table, pred Pred, opts SelectOpts) {
	x.begin(stmtSelect, x.stmt(t, frameSelect), t, 0)
	x.pred, x.opts = pred, opts
}

func (x *Exec) update(t *Table, id int64, fn func(*Row)) {
	x.begin(stmtUpdate, x.stmt(t, frameUpdate), t, id)
	x.fn = fn
}

func (x *Exec) insert(t *Table, r Row) {
	x.begin(stmtInsert, x.stmt(t, frameInsert), t, r.ID)
	x.ins = r
}

func (x *Exec) tempSort(n int) {
	x.begin(stmtTempSort, x.op(frameTempSort), nil, 0)
	x.n = n
}

// run starts the statement just set as a frame step continuing at k:
// the op a blocking DB method awaits.
func (x *Exec) run(c *vclock.Coro, k vclock.Frame) vclock.Step {
	x.k = k
	return x.advance(c, nil)
}

// Lookup is DB.Lookup as a frame step: k runs once the statement is
// done, and Row holds what it found.
func (x *Exec) Lookup(c *vclock.Coro, t *Table, id int64, k vclock.Frame) vclock.Step {
	x.lookup(t, id)
	return x.run(c, k)
}

// Select is DB.Select as a frame step; Rows holds the result.
func (x *Exec) Select(c *vclock.Coro, t *Table, pred Pred, opts SelectOpts, k vclock.Frame) vclock.Step {
	x.sel(t, pred, opts)
	return x.run(c, k)
}

// Update is DB.Update as a frame step; Row's second result reports
// whether the row existed.
func (x *Exec) Update(c *vclock.Coro, t *Table, id int64, fn func(*Row), k vclock.Frame) vclock.Step {
	x.update(t, id, fn)
	return x.run(c, k)
}

// Insert is DB.Insert as a frame step.
func (x *Exec) Insert(c *vclock.Coro, t *Table, r Row, k vclock.Frame) vclock.Step {
	x.insert(t, r)
	return x.run(c, k)
}

// TempSort is DB.TempSort as a frame step.
func (x *Exec) TempSort(c *vclock.Coro, n int, k vclock.Frame) vclock.Step {
	x.tempSort(n)
	return x.run(c, k)
}

// Row returns the last Lookup's row and whether the key existed; after
// an Update the second result alone is meaningful.
func (x *Exec) Row() (Row, bool) { return x.row, x.ok }

// Rows returns the last Select's result: copies of the row headers
// (attribute slices are shared — the workload treats them as immutable),
// nil under CountOnly.
func (x *Exec) Rows() []Row { return x.rows }

// Select scans the table under the engine's read locking, filters with
// pred, optionally sorts and limits; all CPU demand is charged through
// pr, whose free-form thread blocks until the statement is done (as it
// does in every DB method below). The returned rows are copies of the
// row headers (attribute slices are shared — the workload treats them
// as immutable).
func (db *DB) Select(pr *profiler.Probe, t *Table, pred Pred, opts SelectOpts) []Row {
	x := db.NewExec(pr)
	x.sel(t, pred, opts)
	defer x.Abort() // a no-op unless Kill or Shutdown unwinds the wait
	pr.Thread().Await(x.run)
	return x.rows
}

// Lookup fetches a row by primary key under read locking.
func (db *DB) Lookup(pr *profiler.Probe, t *Table, id int64) (Row, bool) {
	x := db.NewExec(pr)
	x.lookup(t, id)
	defer x.Abort()
	pr.Thread().Await(x.run)
	return x.row, x.ok
}

// Update applies fn to the row with the given id under the engine's write
// locking. It reports whether the row existed.
func (db *DB) Update(pr *profiler.Probe, t *Table, id int64, fn func(*Row)) bool {
	x := db.NewExec(pr)
	x.update(t, id, fn)
	defer x.Abort()
	pr.Thread().Await(x.run)
	return x.ok
}

// Insert appends a row under write locking (the whole table for MyISAM,
// the new row's lock for InnoDB).
func (db *DB) Insert(pr *profiler.Probe, t *Table, r Row) {
	x := db.NewExec(pr)
	x.insert(t, r)
	defer x.Abort()
	pr.Thread().Await(x.run)
}

// TempSort models the heavy-weight "sort into a temporary table" query
// shape (AdminConfirm, BestSellers): materialise n rows into a temp table
// and sort them, charging temp+agg+sort costs. Only the cost (and the
// profiler frames) matter; callers aggregate real data themselves.
func (db *DB) TempSort(pr *profiler.Probe, n int) {
	x := db.NewExec(pr)
	x.tempSort(n)
	defer x.Abort()
	pr.Thread().Await(x.run)
}
