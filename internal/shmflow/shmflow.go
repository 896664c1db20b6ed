// Package shmflow implements Whodunit's algorithm for automatically
// detecting transaction flow through shared memory (paper §3).
//
// The algorithm watches every MOV-family memory operation executed inside
// critical sections (and a bounded window after each critical-section
// exit) on the vm machine, and maintains a dictionary associating
// locations — memory words and per-thread registers — with transaction
// contexts:
//
//   - moving a value whose source has an associated context propagates
//     that context to the destination;
//   - moving a value with no associated context associates the executing
//     thread's own context with the destination and, for memory
//     destinations, marks the thread a *producer* for the critical
//     section's lock;
//   - any non-MOV modification (immediates, arithmetic, increments)
//     associates the special invalid context, which also propagates —
//     this is what rejects NULL sanity-checks and shared counters;
//   - a location touched from a critical section protected by a
//     different lock than the one that last set its context is flushed;
//   - a thread that *uses* (reads) a context-carrying location within
//     MAX instructions after leaving the critical section is a
//     *consumer*: the context is assigned to it and a flow event is
//     emitted;
//   - the first time a lock's producer and consumer sets intersect, the
//     lock is declared non-flow (the memory-allocator pattern) and its
//     critical sections may fall back to native execution.
//
// The dictionary is shadow state shaped like the machine it shadows, not
// a hash table. Memory words live in a paged slice of entries with the
// geometry of vm.Memory (a map only for addresses past the directory,
// ≥ 2^25), and each vm thread that has touched a register owns a register
// file — NumRegs entries behind a presence mask, found through the file
// used last or a scan of the few unreleased threads' files — so every
// lookup on the traced-instruction path is an index and the
// critical-section-entry flush is one store; a lock's producer and
// consumer sets are bit sets over the machine's dense thread ids. A
// register file belongs to its thread until the
// thread's owner calls Release, which returns it to a free list: the
// dictionary is bounded by live threads and touched words, and a host
// that runs one-shot threads forever allocates nothing per execution.
// Releasing a dead thread's registers cannot change a result because
// §3.2's register names are reg_t — annotated with the owning thread —
// and only instructions executed by thread t ever name reg_t: once t has
// halted no access can read, flush or overwrite those entries, and thread
// ids are never reused. (Memory entries a dead thread produced stay; they
// are the flows still in flight.)
package shmflow

import (
	"fmt"
	"math/bits"

	"whodunit/internal/vm"
)

// Token identifies a transaction context opaquely. The application maps
// its real transaction contexts to tokens (e.g. a tranctx synopsis).
// Token 0 conventionally means "no transaction".
type Token uint32

// FlowEvent records one detected transaction flow: consumer picked up the
// context tok that producer left at loc, under the given lock. Its ids
// are the vm machine's, at its width: Producer, Consumer and Loc.Thread
// are int32 thread ids, each issued once, never reused and refused past
// MaxInt32 rather than wrapped, and Lock is an int32 lock id (see
// vm.Machine). A flow is 28 bytes.
type FlowEvent struct {
	Producer int32
	Consumer int32
	Token    Token
	Lock     int32
	Loc      vm.Loc
}

func (e FlowEvent) String() string {
	return fmt.Sprintf("flow t%d->t%d tok=%d lock=%d at %v", e.Producer, e.Consumer, e.Token, e.Lock, e.Loc)
}

// entry is a dictionary entry: the context associated with a location.
// For memory words state also says whether the word has an entry at all;
// a register's presence is its file's mask bit.
type entry struct {
	lock     int32
	producer int32
	tok      Token
	state    uint8
}

const (
	absent  uint8 = iota
	invalid       // the paper's invlctxt
	valid
)

// Shadow memory geometry, the same as vm.Memory's so a program's words
// and their entries page alike.
const (
	pageShift = 9              // 512-word pages
	pageWords = 1 << pageShift //
	pageMask  = pageWords - 1  //
	dirLimit  = 1 << 16        // max directory entries: covers 2^25 words
)

// regFile is the shadow of one vm thread's registers. Only registers
// whose mask bit is set have an entry, so flushing the file is one store.
type regFile struct {
	thread int32
	mask   uint16
	e      [vm.NumRegs]entry
}

// lockInfo tracks the producer/consumer thread sets per lock object.
type lockInfo struct {
	producers idSet
	consumers idSet
	nonFlow   bool
}

// idSet is a set of vm thread ids, one bit per id. A lock's sets gain an
// id with every critical-section execution of a one-shot thread and are
// probed on every produce and consume; the machine hands ids out densely,
// counting up from 0, so a bit set grown by the word holds what a hash
// map held in a fraction of the space and answers with a shift and a
// mask.
type idSet struct{ words []uint64 }

func (s *idSet) has(id int32) bool {
	w := int(id >> 6)
	return w < len(s.words) && s.words[w]&(1<<(id&63)) != 0
}

func (s *idSet) add(id int32) {
	w := int(id >> 6)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[w] |= 1 << (id & 63)
}

// ids returns the members in increasing order, never nil.
func (s *idSet) ids() []int32 {
	out := []int32{}
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// Stats are the tracker's counters. They are plain fields bumped on the
// machine's single dispatcher path; read them between runs.
type Stats struct {
	CSEntries      int64 // outermost critical-section entries traced
	Accesses       int64 // traced instruction executions
	LockFlushes    int64 // entries dropped by the mismatched-lock rule
	Consumes       int64 // context-carrying uses inside a window
	Flows          int64 // consumes that emitted a FlowEvent
	DictEntries    int   // live associations, memory words plus registers
	ShadowPages    int   // shadow memory pages allocated
	RegFilesLive   int   // register files owned by unreleased threads
	RegFilesPooled int   // register files on the free list
}

// Tracker implements vm.Tracer and runs the §3 algorithm.
type Tracker struct {
	// ThreadCtxt supplies the executing thread's current transaction
	// context token; required.
	ThreadCtxt func(thread int32) Token
	// OnFlow, if set, is invoked for every detected flow (after the
	// consumer set updates). This is where the profiler propagates the
	// context to the consuming thread (§3.5).
	OnFlow func(ev FlowEvent)
	// OnNonFlow, if set, is invoked once per lock when its accesses are
	// classified as not constituting transaction flow; the application
	// typically responds with Machine.SetNonFlow to drop to native
	// execution (§7.2).
	OnNonFlow func(lock int32)

	pages      []*[pageWords]entry // shadow memory directory
	spill      map[uint32]entry    // words past the directory
	live       []*regFile          // register files of unreleased threads; see regs
	last       *regFile            // the file used last
	free       []*regFile          // released files
	locks      map[int32]*lockInfo
	lastLock   *lockInfo // locks[lastLockID], the entry used last
	lastLockID int32
	flows      [][]FlowEvent // the flow log in blocks of flowBlock events: appending never copies it
	stats      Stats
}

// flowBlock is the length of one block of the flow log. A log that grew
// as one slice would allocate about five times its final size.
const flowBlock = 1024

var _ vm.Tracer = (*Tracker)(nil)

// NewTracker returns a tracker with an empty dictionary. ThreadCtxt must
// be assigned before use.
func NewTracker() *Tracker {
	return &Tracker{locks: make(map[int32]*lockInfo)}
}

// Flows returns every detected flow event in order, copied into a slice
// of exactly their number (nil when there is none).
func (tr *Tracker) Flows() []FlowEvent {
	if tr.stats.Flows == 0 {
		return nil
	}
	out := make([]FlowEvent, 0, tr.stats.Flows)
	for _, b := range tr.flows {
		out = append(out, b...)
	}
	return out
}

// NonFlow reports whether lock has been classified non-flow.
func (tr *Tracker) NonFlow(lock int32) bool {
	li := tr.locks[lock]
	return li != nil && li.nonFlow
}

// Producers returns the sorted producer thread ids recorded for lock.
func (tr *Tracker) Producers(lock int32) []int32 { return tr.side(lock, true) }

// Consumers returns the sorted consumer thread ids recorded for lock.
func (tr *Tracker) Consumers(lock int32) []int32 { return tr.side(lock, false) }

func (tr *Tracker) side(lock int32, prod bool) []int32 {
	li := tr.locks[lock]
	if li == nil {
		return nil
	}
	if prod {
		return li.producers.ids()
	}
	return li.consumers.ids()
}

// DictSize reports the number of live dictionary entries (for tests and
// capacity monitoring).
func (tr *Tracker) DictSize() int { return tr.stats.DictEntries }

// Stats returns the tracker's counters.
func (tr *Tracker) Stats() Stats {
	s := tr.stats
	s.RegFilesLive = len(tr.live)
	s.RegFilesPooled = len(tr.free)
	return s
}

// Release drops thread's register entries and returns their storage to
// the free list. Whoever owns a vm thread calls it once the thread has
// halted (beside Machine.Reap); see the package comment for why no result
// can depend on it.
func (tr *Tracker) Release(thread int32) {
	for i, rf := range tr.live {
		if rf.thread != thread {
			continue
		}
		n := len(tr.live) - 1
		tr.live[i], tr.live[n] = tr.live[n], nil
		tr.live = tr.live[:n]
		if tr.last == rf {
			tr.last = nil
		}
		tr.stats.DictEntries -= bits.OnesCount16(rf.mask)
		tr.free = append(tr.free, rf)
		return
	}
}

// regs returns thread's register file, or nil if it has none and create
// is false. Machine.Run almost always has one runnable thread, so the
// file used last answers first; behind it the unreleased threads' files
// are scanned, not hashed — a host that releases its halted threads has
// as many as it has executions in flight, a handful.
func (tr *Tracker) regs(thread int32, create bool) *regFile {
	if rf := tr.last; rf != nil && rf.thread == thread {
		return rf
	}
	for _, rf := range tr.live {
		if rf.thread == thread {
			tr.last = rf
			return rf
		}
	}
	if !create {
		return nil
	}
	var rf *regFile
	if n := len(tr.free); n > 0 {
		rf = tr.free[n-1]
		tr.free = tr.free[:n-1]
	} else {
		rf = new(regFile)
	}
	rf.thread, rf.mask = thread, 0
	tr.live = append(tr.live, rf)
	tr.last = rf
	return rf
}

// page returns the shadow page covering a, allocating directory and page
// as needed, or nil when a lies past the directory limit (spill path).
func (tr *Tracker) page(a uint32) *[pageWords]entry {
	pg := a >> pageShift
	if pg < uint32(len(tr.pages)) {
		if p := tr.pages[pg]; p != nil {
			return p
		}
	} else {
		if pg >= dirLimit {
			return nil
		}
		n := uint32(64)
		for n <= pg {
			n <<= 1
		}
		dir := make([]*[pageWords]entry, n)
		copy(dir, tr.pages)
		tr.pages = dir
	}
	p := new([pageWords]entry)
	tr.pages[pg] = p
	tr.stats.ShadowPages++
	return p
}

// get returns loc's entry and whether it has one.
func (tr *Tracker) get(loc vm.Loc) (entry, bool) {
	if loc.Kind == vm.LocReg {
		r := loc.Addr % vm.NumRegs
		if rf := tr.regs(loc.Thread, false); rf != nil && rf.mask&(1<<r) != 0 {
			return rf.e[r], true
		}
		return entry{}, false
	}
	a := loc.Addr
	if pg := a >> pageShift; pg < uint32(len(tr.pages)) {
		if p := tr.pages[pg]; p != nil {
			e := p[a&pageMask]
			return e, e.state != absent
		}
		return entry{}, false
	}
	e, ok := tr.spill[a]
	return e, ok
}

// set associates e, whose state is invalid or valid, with loc.
func (tr *Tracker) set(loc vm.Loc, e entry) {
	if loc.Kind == vm.LocReg {
		r := loc.Addr % vm.NumRegs
		rf := tr.regs(loc.Thread, true)
		if rf.mask&(1<<r) == 0 {
			rf.mask |= 1 << r
			tr.stats.DictEntries++
		}
		rf.e[r] = e
		return
	}
	a := loc.Addr
	if p := tr.page(a); p != nil {
		if p[a&pageMask].state == absent {
			tr.stats.DictEntries++
		}
		p[a&pageMask] = e
		return
	}
	if tr.spill == nil {
		tr.spill = make(map[uint32]entry)
	}
	if _, ok := tr.spill[a]; !ok {
		tr.stats.DictEntries++
	}
	tr.spill[a] = e
}

// del drops loc's entry, if it has one.
func (tr *Tracker) del(loc vm.Loc) {
	if loc.Kind == vm.LocReg {
		r := loc.Addr % vm.NumRegs
		if rf := tr.regs(loc.Thread, false); rf != nil && rf.mask&(1<<r) != 0 {
			rf.mask &^= 1 << r
			tr.stats.DictEntries--
		}
		return
	}
	a := loc.Addr
	if pg := a >> pageShift; pg < uint32(len(tr.pages)) {
		if p := tr.pages[pg]; p != nil && p[a&pageMask].state != absent {
			p[a&pageMask].state = absent
			tr.stats.DictEntries--
		}
		return
	}
	if _, ok := tr.spill[a]; ok {
		delete(tr.spill, a)
		tr.stats.DictEntries--
	}
}

// lockInfoFor returns lock's thread sets; consecutive produces and
// consumes are mostly under one lock, so the entry used last answers
// before the map does.
func (tr *Tracker) lockInfoFor(lock int32) *lockInfo {
	if tr.lastLock != nil && tr.lastLockID == lock {
		return tr.lastLock
	}
	li, ok := tr.locks[lock]
	if !ok {
		li = new(lockInfo)
		tr.locks[lock] = li
	}
	tr.lastLock, tr.lastLockID = li, lock
	return li
}

// OnLock implements vm.Tracer: entering the outermost critical section.
// The thread's register entries are flushed — registers were freely
// overwritten outside the traced region, so any old association is stale.
// This realises the §3.2 premise that a producer's source locations have
// no associated context on critical-section entry.
func (tr *Tracker) OnLock(thread, lock int) {
	tr.stats.CSEntries++
	if rf := tr.regs(int32(thread), false); rf != nil {
		tr.stats.DictEntries -= bits.OnesCount16(rf.mask)
		rf.mask = 0
	}
}

// OnUnlock implements vm.Tracer. The consume window is handled by the
// machine; nothing to do here.
func (tr *Tracker) OnUnlock(thread, lock int) {}

// OnAccess implements vm.Tracer: the per-instruction algorithm.
func (tr *Tracker) OnAccess(ac vm.Access) {
	tr.stats.Accesses++
	if ac.InCS {
		tr.inCS(&ac)
		return
	}
	if ac.InWindow {
		tr.inWindow(&ac)
	}
}

// flushMismatched drops loc's entry if it was last set under a different
// lock (§3.2: a location may serve different purposes at different times).
func (tr *Tracker) flushMismatched(loc vm.Loc, lock int32) {
	if e, ok := tr.get(loc); ok && e.lock != lock {
		tr.del(loc)
		tr.stats.LockFlushes++
	}
}

func (tr *Tracker) inCS(ac *vm.Access) {
	switch ac.Kind {
	case vm.AccMove:
		tr.flushMismatched(ac.Src, ac.Lock)
		tr.flushMismatched(ac.Dst, ac.Lock)
		if e, ok := tr.get(ac.Src); ok {
			// Propagate, valid or invalid (§3.3.2: the NULL/invalid
			// context is transferred just like a valid one).
			e.lock = ac.Lock
			tr.set(ac.Dst, e)
			return
		}
		// Source has no associated context: associate the executing
		// thread's context with the destination. A memory destination is
		// a produce (§3.2).
		tok := Token(0)
		if tr.ThreadCtxt != nil {
			tok = tr.ThreadCtxt(ac.Thread)
		}
		tr.set(ac.Dst, entry{tok: tok, state: valid, lock: ac.Lock, producer: ac.Thread})
		if ac.Dst.Kind == vm.LocMem {
			tr.addProducer(ac.Lock, ac.Thread)
		}
	case vm.AccWrite:
		tr.flushMismatched(ac.Dst, ac.Lock)
		// Non-MOV modification: invalid context (§3.2).
		tr.set(ac.Dst, entry{state: invalid, lock: ac.Lock})
	case vm.AccRead:
		// Reads inside the critical section carry no inference; consumes
		// are detected after exit (§3.2's consumer definition).
	}
}

func (tr *Tracker) inWindow(ac *vm.Access) {
	// Uses of context-carrying locations after critical-section exit are
	// consumes (§3.2, §7.2).
	for _, loc := range ac.Reads {
		e, ok := tr.get(loc)
		if !ok || e.state != valid {
			continue
		}
		// The value has been consumed; drop the association so repeated
		// uses in the same window do not re-fire.
		tr.del(loc)
		tr.stats.Consumes++
		li := tr.addConsumer(e.lock, ac.Thread)
		if li.nonFlow {
			continue
		}
		if e.producer == ac.Thread {
			// A thread picking up its own context is not a transaction
			// flow (it contributes to the allocator-pattern sets above,
			// but assigning a thread its own context is a no-op).
			continue
		}
		ev := FlowEvent{Producer: e.producer, Consumer: ac.Thread, Token: e.tok, Lock: e.lock, Loc: loc}
		if tr.stats.Flows%flowBlock == 0 {
			tr.flows = append(tr.flows, make([]FlowEvent, 0, flowBlock))
		}
		b := &tr.flows[len(tr.flows)-1]
		*b = append(*b, ev)
		tr.stats.Flows++
		if tr.OnFlow != nil {
			tr.OnFlow(ev)
		}
	}
	// Writes outside the critical section are untracked computation;
	// whatever the instruction stores there is not a traced value, so any
	// stale association must be dropped.
	if ac.Kind == vm.AccMove || ac.Kind == vm.AccWrite {
		tr.del(ac.Dst)
	}
}

// addProducer and addConsumer grow a lock's thread sets and apply §3.4's
// allocator rule incrementally: the producer/consumer intersection first
// becomes non-empty exactly when a thread newly added to one set is
// already in the other, so membership of the new thread is the only
// check needed — the full rescan this replaces was O(producers) per
// traced instruction, quadratic over an app's lifetime of one-shot
// critical-section executions.
func (tr *Tracker) addProducer(lock, thread int32) {
	li := tr.lockInfoFor(lock)
	if li.producers.has(thread) {
		return
	}
	li.producers.add(thread)
	if !li.nonFlow && li.consumers.has(thread) {
		tr.markNonFlow(lock, li)
	}
}

func (tr *Tracker) addConsumer(lock, thread int32) *lockInfo {
	li := tr.lockInfoFor(lock)
	if !li.consumers.has(thread) {
		li.consumers.add(thread)
		if !li.nonFlow && li.producers.has(thread) {
			tr.markNonFlow(lock, li)
		}
	}
	return li
}

func (tr *Tracker) markNonFlow(lock int32, li *lockInfo) {
	li.nonFlow = true
	if tr.OnNonFlow != nil {
		tr.OnNonFlow(lock)
	}
}
