// Package profiler implements Whodunit's profiler core (§7.1): a
// statistical call-path profiler in the style of csprof that accumulates
// samples into Calling Context Trees, one CCT per transaction context,
// plus a gprof-style instrumented baseline used by the overhead
// comparison (Table 2).
//
// Profiling runs on virtual time: a probe charges CPU demand to a
// vclock.CPU and takes one profile sample per sampling interval of CPU
// actually consumed. Profiling overhead is itself modelled as extra CPU
// demand — per sample for the statistical modes, per procedure call for
// the instrumented mode — so enabling a profiler changes the simulated
// application's throughput exactly the way the paper measures.
package profiler

import (
	"fmt"
	"sort"

	"whodunit/internal/cct"
	"whodunit/internal/tranctx"
	"whodunit/internal/vclock"
)

// Mode selects the profiling strategy.
type Mode uint8

const (
	// ModeOff disables profiling; probes only charge application CPU.
	ModeOff Mode = iota
	// ModeSampling is the csprof baseline: statistical call-path samples
	// into one CCT, no transaction contexts.
	ModeSampling
	// ModeWhodunit is sampling plus transaction-context tracking: samples
	// land in the CCT of the current transaction context.
	ModeWhodunit
	// ModeInstrumented is the gprof baseline: per-call instrumentation
	// (with its proportional overhead) plus statistical samples, no
	// transaction contexts.
	ModeInstrumented
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeSampling:
		return "csprof"
	case ModeWhodunit:
		return "whodunit"
	case ModeInstrumented:
		return "gprof"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Overhead models the profiler's own CPU costs (virtual time).
type Overhead struct {
	// PerSample is charged for every statistical sample taken (unwinding
	// the stack and bumping a CCT node — csprof-style).
	PerSample vclock.Duration
	// PerCall is charged on every procedure entry in ModeInstrumented
	// (gprof's inserted counting code).
	PerCall vclock.Duration
	// PerCtxtSwitch is charged in ModeWhodunit whenever the transaction
	// context changes (CCT dictionary lookup and switch, §7.1).
	PerCtxtSwitch vclock.Duration
}

// DefaultOverhead is calibrated so the relative overheads land where §9.1
// reports them: csprof < 3% (40us per 1.5ms sampling interval), Whodunit
// ≈ csprof + ~0.1% (2us per context switch), gprof ≈ 24% for call-dense
// workloads (1.2us of counting code per procedure call, with call counts
// supplied through ComputeN).
var DefaultOverhead = Overhead{
	PerSample:     40 * vclock.Microsecond,
	PerCall:       1200 * vclock.Nanosecond,
	PerCtxtSwitch: 2 * vclock.Microsecond,
}

// DefaultInterval is the sampling period: 666 samples per second of CPU
// consumed, gprof's default frequency on the paper's platform (§9.1).
const DefaultInterval = vclock.Second / 666

// TxnCtxt is a profiler-level transaction context: the synopsis chain
// received from upstream stages (opaque to this stage) plus the locally
// built context (call-path, handler and stage hops interned in this
// stage's table).
type TxnCtxt struct {
	Prefix tranctx.Chain
	Local  *tranctx.Ctxt
}

// Key returns the CCT dictionary key for the context. It is a rendered,
// serializable form used in stage dumps and stitching metadata; the
// profiler's own dictionary is keyed by the interned numeric identity
// (see CtxtID), so Key is only built at send points and presentation
// time, never per sample.
func (tc TxnCtxt) Key() string {
	if len(tc.Prefix) == 0 {
		return localKey(tc.Local)
	}
	return tc.Prefix.String() + "|" + localKey(tc.Local)
}

func localKey(c *tranctx.Ctxt) string {
	if c == nil {
		return "0"
	}
	return fmt.Sprintf("%d", c.Synopsis())
}

// localSynopsis is the numeric identity Key's local part renders: the nil
// context and the root context both map to synopsis 0.
func localSynopsis(c *tranctx.Ctxt) tranctx.Synopsis {
	if c == nil {
		return 0
	}
	return c.Synopsis()
}

// CtxtID is the interned numeric identity of a TxnCtxt: the local
// context's synopsis plus a hash of the prefix chain. Two contexts with
// equal CtxtID and equal prefix chains have equal Keys, so a dictionary
// of contexts — the CCT dictionary here, the flow-token table of the
// root package — can be keyed by this comparable struct (with
// chain-equality confirmation against hash collisions) instead of a
// built string.
type CtxtID struct {
	chain uint64 // tranctx.Chain.Hash of Prefix
	local tranctx.Synopsis
}

// ID returns the context's interned identity; see CtxtID.
func (tc TxnCtxt) ID() CtxtID {
	return CtxtID{chain: tc.Prefix.Hash(), local: localSynopsis(tc.Local)}
}

// sameCtxt reports whether a and b name the same CCT dictionary entry
// (i.e. a.Key() == b.Key()) without building either key.
func sameCtxt(a, b TxnCtxt) bool {
	return localSynopsis(a.Local) == localSynopsis(b.Local) && a.Prefix.Equal(b.Prefix)
}

// Label renders the context for humans.
func (tc TxnCtxt) Label() string {
	switch {
	case len(tc.Prefix) == 0 && (tc.Local == nil || tc.Local.IsRoot()):
		return "(root)"
	case len(tc.Prefix) == 0:
		return tc.Local.String()
	case tc.Local == nil || tc.Local.IsRoot():
		return "[" + tc.Prefix.String() + "]"
	default:
		return "[" + tc.Prefix.String() + "] " + tc.Local.String()
	}
}

// Profiler is the per-stage profiler state: mode, sampling parameters and
// the CCT dictionary keyed by interned transaction-context identity
// (§7.1). All of the stage's trees share one frame table, so a probe's
// interned call stack is valid in whichever context tree a sample lands.
// The dictionary and the sampling counters are the embedded profile,
// whose presentation methods a Snapshot shares.
type Profiler struct {
	Stage    string
	Table    *tranctx.Table
	Mode     Mode
	Interval vclock.Duration
	Overhead Overhead

	profile
	frames *cct.FrameTable
	ctxts  map[CtxtID][]ctxtEntry // every context seen, for the stage's lifetime (hash bucket)
	window int                    // Retire count: which window a ctxtEntry's slot belongs to
	probes []*Probe               // every probe issued; Retire invalidates their caches
	ccTab  []ccNode               // CallCtxt memo, indexed by the base context's synopsis
	free   []*cct.Tree            // recycled windows' trees, for tree to reset and reuse
	spare  []TreeEntry            // a recycled window's slot array, for Retire to reuse
}

// ctxtEntry is one context's stage-lifetime dictionary entry: its
// rendered names (Key, Label and the prefix chain's String), made when
// the stage first saw it, and its tree slot in the current window, if it
// has one. Contexts are interned and chains immutable, so the names
// never go stale; Retire only advances the window, which empties every
// entry's slot at once.
type ctxtEntry struct {
	ctxt               TxnCtxt
	key, label, prefix string
	window             int // the slot below is current when window == Profiler.window
	slot               int
}

// profile is the state the presentation methods read: the CCT
// dictionary and the sampling counters. A Profiler embeds the live one
// and a Snapshot a shared, retired or copied one, so each presentation
// method (Entries, TotalSamples, Stats, Merged, Shares) is written once.
type profile struct {
	slots        []TreeEntry // creation order, deterministic
	samples      int64
	calls        int64
	ctxtSwitches int64
	overheadAcc  vclock.Duration
}

// New returns a profiler for the named stage in the given mode with
// default interval and overhead model.
func New(stage string, mode Mode) *Profiler {
	return &Profiler{
		Stage:    stage,
		Table:    tranctx.NewTable(),
		Mode:     mode,
		Interval: DefaultInterval,
		Overhead: DefaultOverhead,
		frames:   cct.NewFrameTable(),
		ctxts:    make(map[CtxtID][]ctxtEntry),
	}
}

// RootTxn returns the empty transaction context for this stage.
func (p *Profiler) RootTxn() TxnCtxt { return TxnCtxt{Local: p.Table.Root()} }

// Frames returns the stage-wide frame table shared by every tree. A call
// site that owns a constant frame name interns it once here —
// Frames().ID(name) — and enters it with Probe.EnterID.
func (p *Profiler) Frames() *cct.FrameTable { return p.frames }

// CallCtxtSlots reports the length of the CallCtxt memo table: one slot
// per base-context synopsis up to the largest a send point has extended,
// so never more than Table.Size().
func (p *Profiler) CallCtxtSlots() int { return len(p.ccTab) }

// tree returns (creating if needed) the current window's CCT for the
// given context. The lookup is a single map access on the interned
// numeric identity plus a chain-equality confirmation — no strings are
// built. A context's label, key and prefix strings are rendered once,
// the first time the stage sees it, and live as long as the stage: every
// later window's tree, Entries and stage dump reuse them. A window's new
// tree is a recycled one, reset, while Recycle has given any back.
func (p *Profiler) tree(tc TxnCtxt) *cct.Tree {
	id := tc.ID()
	bucket := p.ctxts[id]
	k := 0
	for k < len(bucket) && !bucket[k].ctxt.Prefix.Equal(tc.Prefix) {
		k++
	}
	if k == len(bucket) {
		bucket = append(bucket, ctxtEntry{ctxt: tc, key: tc.Key(), label: tc.Label(), prefix: tc.Prefix.String(), window: -1})
		p.ctxts[id] = bucket
	}
	e := &bucket[k]
	if e.window == p.window {
		return p.slots[e.slot].Tree
	}
	label := e.label
	if tc.Local != e.ctxt.Local {
		// Another table's context with the same synopsis: it keys the
		// same entry, but renders its own label.
		label = tc.Label()
	}
	var t *cct.Tree
	if n := len(p.free); n > 0 {
		t, p.free = p.free[n-1], p.free[:n-1]
		t.Reset(label)
	} else {
		t = cct.NewShared(label, p.frames)
	}
	e.window, e.slot = p.window, len(p.slots)
	p.slots = append(p.slots, TreeEntry{Key: e.key, Prefix: e.prefix, Ctxt: tc, Tree: t})
	return t
}

// TreeEntry pairs a CCT with the transaction context it is annotated
// with; used for post-mortem stitching (§7.1). Key and Prefix are the
// context's Key and its prefix chain's String; the label is Tree.Label.
type TreeEntry struct {
	Key    string
	Prefix string
	Ctxt   TxnCtxt
	Tree   *cct.Tree
}

// Entries returns every (context, CCT) pair in creation order. Its
// strings are the ones the stage rendered when it first saw each
// context, shared by every window since (see Profiler.tree).
//
// The list is the profile's own, not a copy: read it, do not write it.
// It is capped at its length, and the profile only ever appends to it
// (a sample into a new context) and never rewrites an entry, so later
// samples do not change the list a caller holds. They do add to the
// trees it names, in a View of a running profiler. Once the window's
// retired snapshot is recycled (Profiler.Recycle), the list and its
// trees belong to later windows and may not be read.
func (d *profile) Entries() []TreeEntry { return d.slots[:len(d.slots):len(d.slots)] }

// TotalSamples reports all samples taken across every context.
func (d *profile) TotalSamples() int64 { return d.samples }

// Stats reports sample count, instrumented call count, context switches
// and the total modelled profiling overhead.
func (d *profile) Stats() (samples, calls, ctxtSwitches int64, overhead vclock.Duration) {
	return d.samples, d.calls, d.ctxtSwitches, d.overheadAcc
}

// Merged returns a single CCT merging every context (what a conventional
// profiler would report). The merge matches frames by name into a fresh
// private tree.
func (d *profile) Merged() *cct.Tree {
	m := cct.New("(all contexts)")
	for _, e := range d.slots {
		m.Merge(e.Tree)
	}
	return m
}

// ContextShares returns each context label with its share of total
// samples, sorted by descending share then label. This is the "percentage
// in a triangle" data of Figures 8-10.
type ContextShare struct {
	Label   string
	Samples int64
	Share   float64 // fraction of all samples, 0..1
}

// Shares computes per-context sample shares.
func (d *profile) Shares() []ContextShare {
	out := make([]ContextShare, 0, len(d.slots))
	for _, e := range d.slots {
		t := e.Tree
		sh := 0.0
		if d.samples > 0 {
			sh = float64(t.Total()) / float64(d.samples)
		}
		out = append(out, ContextShare{Label: t.Label, Samples: t.Total(), Share: sh})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Snapshot is a read-only view of a profiler's accumulated state: the
// per-context CCT dictionary plus the sampling counters, with the
// Profiler's presentation methods. Snapshots come from three
// constructors with different cost/safety trade-offs:
//
//   - Profiler.View shares the live state without copying or resetting
//     it: the way to present a profiler that keeps running, read before
//     it samples again (the end-of-run report, and the continuous
//     profiling service's live window).
//   - Profiler.Retire transfers ownership of the active tree set in O(1)
//     (copy-on-retire): the snapshot's trees still share the profiler's
//     frame table, so they must be read from the goroutine driving the
//     simulation (scheduler callbacks, stop predicates, post-run code).
//     This is the window-retirement path of the continuous profiling
//     service, which hands each retired snapshot back (Profiler.Recycle)
//     once it has dumped it, so the next window refills its trees.
//   - Profiler.Snapshot deep-copies every tree into a snapshot-private
//     frame table: the result shares nothing mutable with the live
//     profiler and can be read from any goroutine while the simulation
//     advances. Nothing in the serving path takes one; the benchmark's
//     profiler.snapshot_us row prices it.
type Snapshot struct {
	Stage string
	Mode  Mode
	profile
	retiredBy *Profiler // the profiler that retired it, until it takes it back
	recycled  bool
}

// View returns the profiler's current state as a Snapshot that shares
// the live trees. Read it where the profiler is read —
// synchronously with the simulation — and before the profiler takes
// another sample.
func (p *Profiler) View() *Snapshot {
	return &Snapshot{Stage: p.Stage, Mode: p.Mode, profile: p.profile}
}

// Retire ends the current aggregation window: it returns a Snapshot
// owning every tree accumulated since the previous Retire (or the start
// of the run) and resets the profiler to an empty dictionary. The
// retirement itself is O(1) — the active tree set is swapped out, not
// copied. Counters (samples, calls, context switches, overhead) move to
// the snapshot and restart from zero; probes' sampling phases, call
// stacks and transaction contexts carry over, so the concatenation of
// retired windows is sample-for-sample the profile an unwindowed run
// would have taken. The contexts' rendered names belong to the stage,
// not the window: they carry over too, and later windows' trees reuse
// them. The new window's slot array is the one Recycle last took back,
// if any.
//
// See Snapshot for the concurrency contract of the returned view.
func (p *Profiler) Retire() *Snapshot {
	s := p.View()
	s.retiredBy = p
	slots := p.spare[:0]
	if p.spare == nil {
		slots = make([]TreeEntry, 0, len(p.slots))
	}
	p.profile, p.spare = profile{slots: slots}, nil
	p.window++
	// Every probe's cached tree pointer now names a retired tree; the
	// next sample must re-resolve against the fresh dictionary.
	for _, pr := range p.probes {
		pr.cur = nil
	}
	return s
}

// Recycle takes back a snapshot Retire returned, once its caller is done
// with it: the snapshot's trees and slot array become the storage of
// later windows (Profiler.tree resets a recycled tree before it makes a
// new one, Retire reuses the slot array), so a served stage in steady
// state refills the trees of the window before. After Recycle the
// snapshot holds no entries, and nothing read from it may be read
// again: not its Entries, nor the trees they name. A stage dump
// (stitch.Dump) copies its records and shares only immutable strings,
// so a dump taken before Recycle stays valid.
//
// The reuse rule is that a tree or slot array serves one window, from
// its first sample to the dump of its retired snapshot, and returns to
// the profiler only through Recycle; so Recycle panics on a snapshot
// this profiler did not retire (a View, a Snapshot, another stage's)
// and on one recycled before.
func (p *Profiler) Recycle(s *Snapshot) {
	switch {
	case s.recycled:
		panic("profiler: Recycle of a snapshot already recycled")
	case s.retiredBy != p:
		panic("profiler: Recycle of a snapshot that " + p.Stage + "'s Retire did not return")
	}
	for _, e := range s.slots {
		p.free = append(p.free, e.Tree)
	}
	clear(s.slots)
	p.spare = s.slots[:0]
	s.slots, s.retiredBy, s.recycled = nil, nil, true
}

// Snapshot returns a detached deep copy of the profiler's current state:
// every tree is cloned into a snapshot-private frame table, so the result
// can be read from any goroutine while probes keep mutating the live
// profiler. The copy itself must be taken synchronously with the
// simulation (from the run goroutine, a scheduler callback, or a stop
// predicate); only the returned snapshot is free-threaded.
func (p *Profiler) Snapshot() *Snapshot {
	s := p.View()
	ft := cct.NewFrameTable()
	s.slots = make([]TreeEntry, len(p.slots))
	for i, e := range p.slots {
		e.Tree = e.Tree.CloneShared(ft)
		s.slots[i] = e
	}
	return s
}

// Probe is a per-thread instrumentation handle: it owns the thread's call
// stack, current transaction context and sampling phase. All application
// CPU consumption flows through Probe.Compute.
type Probe struct {
	prof *Profiler
	th   *vclock.Thread
	cpu  *vclock.CPU

	stack   []cct.FrameID // interned call stack, outermost first
	txn     TxnCtxt
	cur     *cct.Tree       // cached tree for the current context, nil = recompute
	phase   vclock.Duration // CPU consumed since the last sample boundary
	pending vclock.Duration // overhead to charge on the next Compute
}

// ccNode is a node of the CallCtxt memo: base context + interned call
// stack -> extended context. Sends from an already-seen (context, call
// stack) pair — the steady state of every server loop, even one that
// round-robins across handler frames — reuse the interned extension
// instead of re-joining the call path. The memo is the profiler's ccTab,
// one for the stage: a root node per base context, indexed by its
// synopsis (which the stage's own Table issued, densely from 0), and
// under it a trie over the call stack, each node's children indexed by
// FrameID (dense too, and the stage's own). Both indexes are exact, so
// there is nothing to confirm on a hit; a node's kids are as long as the
// largest FrameID entered beneath it. Extend interns, so whichever probe
// filled a node, every probe reads the pointer a recomputation would
// return. Contexts outlive window retirement (the tranctx Table is
// stage-lifetime), so the memo never needs invalidating.
type ccNode struct {
	ext  *tranctx.Ctxt // the base extended by the path to here; nil until a send point asked
	kids []ccNode
}

// NewProbe creates a probe for thread th charging CPU demand to cpu. The
// probe starts with the root transaction context and an empty call stack.
func (p *Profiler) NewProbe(th *vclock.Thread, cpu *vclock.CPU) *Probe {
	pr := &Probe{prof: p, th: th, cpu: cpu, txn: p.RootTxn()}
	p.probes = append(p.probes, pr)
	return pr
}

// Thread returns the probed thread.
func (pr *Probe) Thread() *vclock.Thread { return pr.th }

// Profiler returns the owning profiler.
func (pr *Probe) Profiler() *Profiler { return pr.prof }

// Enter pushes fn onto the call stack and returns a token for Exit.
// Use as: defer pr.Exit(pr.Enter("func")). It is EnterID after interning
// the name in the stage-wide frame table — a string hash per call, which
// a call site with a constant name avoids by interning once.
func (pr *Probe) Enter(fn string) int { return pr.EnterID(pr.prof.frames.ID(fn)) }

// EnterID is Enter for a frame the stage's table (Profiler.Frames)
// already interned: an append into retained capacity. It is kept small
// enough to inline — into Enter too, which so stays one call deep.
func (pr *Probe) EnterID(id cct.FrameID) int {
	pr.stack = append(pr.stack, id)
	if pr.prof.Mode == ModeInstrumented {
		pr.countEntry()
	}
	return len(pr.stack) - 1
}

// countEntry is gprof's inserted counting code on a procedure entry.
func (pr *Probe) countEntry() {
	pr.prof.calls++
	pr.tree().AddCallIDs(pr.stack)
	pr.pending += pr.prof.Overhead.PerCall
}

// Exit pops the stack back to the depth returned by the matching Enter.
func (pr *Probe) Exit(token int) {
	if token < 0 || token > len(pr.stack) {
		panic(fmt.Sprintf("profiler: bad exit token %d (depth %d)", token, len(pr.stack)))
	}
	pr.stack = pr.stack[:token]
}

// Stack returns a copy of the current call stack (outermost first),
// resolving interned frame IDs back to names.
func (pr *Probe) Stack() []string {
	out := make([]string, len(pr.stack))
	for i, id := range pr.stack {
		out[i] = pr.prof.frames.Name(id)
	}
	return out
}

// Txn returns the probe's current transaction context.
func (pr *Probe) Txn() TxnCtxt { return pr.txn }

// SetTxn switches the probe to a different transaction context (e.g. after
// consuming a produced item, dispatching an event, or receiving a
// message). In Whodunit mode the switch costs PerCtxtSwitch of CPU,
// charged with the next Compute.
func (pr *Probe) SetTxn(tc TxnCtxt) {
	if tc.Local == nil {
		tc.Local = pr.prof.Table.Root()
	}
	if sameCtxt(tc, pr.txn) {
		return
	}
	pr.txn = tc
	if pr.prof.Mode == ModeWhodunit {
		pr.cur = nil // the cached tree belongs to the previous context
		pr.prof.ctxtSwitches++
		pr.pending += pr.prof.Overhead.PerCtxtSwitch
	}
}

// SetLocal replaces only the local part of the transaction context.
func (pr *Probe) SetLocal(c *tranctx.Ctxt) {
	pr.SetTxn(TxnCtxt{Prefix: pr.txn.Prefix, Local: c})
}

// CallCtxt returns the probe's transaction context extended with the
// current call path — the "transaction context at a send point" of §5.
func (pr *Probe) CallCtxt() TxnCtxt {
	local := pr.txn.Local
	if len(pr.stack) > 0 {
		local = pr.prof.extend(local, pr)
	}
	return TxnCtxt{Prefix: pr.txn.Prefix, Local: local}
}

// extend returns base extended by pr's call path, memoized (see ccNode).
func (p *Profiler) extend(base *tranctx.Ctxt, pr *Probe) *tranctx.Ctxt {
	if base.Table() != p.Table {
		// Another stage's context: its synopsis indexes nothing here.
		return base.Extend(tranctx.CallHop(p.Stage, pr.Stack()...))
	}
	slot := int(base.Synopsis())
	if slot >= len(p.ccTab) {
		p.ccTab = append(p.ccTab, make([]ccNode, slot+1-len(p.ccTab))...)
	}
	n := &p.ccTab[slot]
	for _, id := range pr.stack {
		if int(id) >= len(n.kids) {
			n.kids = append(n.kids, make([]ccNode, int(id)+1-len(n.kids))...)
		}
		n = &n.kids[id]
	}
	if n.ext == nil {
		n.ext = base.Extend(tranctx.CallHop(p.Stage, pr.Stack()...))
	}
	return n.ext
}

// tree returns the CCT samples should currently land in: the per-context
// tree in Whodunit mode, a single anonymous tree otherwise. The result is
// cached on the probe and invalidated only when SetTxn actually switches
// context, so the steady-state path is a nil check and a field read — no
// dictionary lookup per sample.
func (pr *Probe) tree() *cct.Tree {
	if pr.cur == nil {
		if pr.prof.Mode == ModeWhodunit {
			pr.cur = pr.prof.tree(pr.txn)
		} else {
			pr.cur = pr.prof.tree(TxnCtxt{Local: pr.prof.Table.Root()})
		}
	}
	return pr.cur
}

// ComputeN is Compute for work that internally executes `calls` procedure
// calls (e.g. a scan calling a per-row comparator): in instrumented
// (gprof) mode each call charges PerCall of counting overhead — this is
// why gprof's overhead is proportional to call counts (§9.1) — while the
// statistical modes are unaffected.
func (pr *Probe) ComputeN(d vclock.Duration, calls int) {
	pr.countCalls(calls)
	pr.Compute(d)
}

// countCalls is the gprof call accounting of ComputeN and ComputeNStep.
func (pr *Probe) countCalls(calls int) {
	if pr.prof.Mode == ModeInstrumented && calls > 0 {
		pr.prof.calls += int64(calls)
		pr.pending += vclock.Duration(calls) * pr.prof.Overhead.PerCall
	}
}

// Compute charges d of application CPU demand (plus any pending profiling
// overhead) to the probe's CPU and takes the statistical samples that fall
// within it. The calling thread blocks until the CPU has served the
// demand.
func (pr *Probe) Compute(d vclock.Duration) {
	if total := pr.account(d); total > 0 {
		pr.th.Compute(pr.cpu, total)
	}
}

// ComputeStep is Compute for run-to-completion threads: the identical
// sampling and overhead accounting, with the CPU occupancy expressed as
// a coroutine step instead of a blocking call — k continues once the
// probe's CPU has served the demand.
func (pr *Probe) ComputeStep(c *vclock.Coro, d vclock.Duration, k vclock.Frame) vclock.Step {
	return c.Compute(pr.cpu, pr.account(d), k)
}

// ComputeNStep is ComputeN for run-to-completion threads: the same call
// accounting, then ComputeStep.
func (pr *Probe) ComputeNStep(c *vclock.Coro, d vclock.Duration, calls int, k vclock.Frame) vclock.Step {
	pr.countCalls(calls)
	return pr.ComputeStep(c, d, k)
}

// account performs the non-blocking half of Compute: sample-taking by
// phase accumulation plus deferred-overhead settlement. It returns the
// total CPU demand to charge — the application's plus the profiler's
// own.
func (pr *Probe) account(d vclock.Duration) vclock.Duration {
	if d < 0 {
		d = 0
	}
	total := d
	if pr.prof.Mode != ModeOff {
		// Samples that fall in this computation, by phase accumulation.
		n := int64(0)
		if pr.prof.Interval > 0 {
			pr.phase += d
			n = int64(pr.phase / pr.prof.Interval)
			pr.phase %= pr.prof.Interval
		}
		if n > 0 {
			pr.prof.samples += n
			pr.tree().AddSamplesIDs(pr.stack, n)
			pr.pending += vclock.Duration(n) * pr.prof.Overhead.PerSample
		}
		total += pr.pending
		pr.prof.overheadAcc += pr.pending
		pr.pending = 0
	}
	return total
}
