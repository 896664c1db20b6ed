package vclock

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Group runs one application across several Sims ("time domains") with
// conservative discrete-event simulation. Each domain advances
// independently through an epoch window [t, t+Δ), and cross-domain
// messages travel over Links, which buffer sends during an epoch and
// exchange them at the epoch barrier through a deterministic merge. An
// epoch costs what its work costs: only the domains with an event
// inside the window run, in domain order, on the goroutine that called
// RunUntil — a Group never hands a domain to another goroutine. Δ is
// the lookahead: the minimum positive Link latency. Because every
// cross-domain message is delayed by at least Δ, nothing sent during an
// epoch can be due inside it — each domain can burn through its own
// event queue for a whole window without ever missing an input.
//
// Determinism is the design center, not a side effect. Within a domain
// the ordinary (when, push sequence) order applies unchanged. At a
// barrier the gathered messages are delivered in (deliverAt, link id,
// per-link seq) order — all three components are functions of the
// program, not of the domain layout — so delivered messages enter the
// destination queue in an order independent of how work was spread over
// domains. A Group with one domain runs the same exchange protocol, so
// serial and sharded runs of the same program are bit-identical; the
// scenario-corpus Diff gate pins exactly that.
//
// A Group whose links all have zero latency has no lookahead to exploit;
// Connect restricts such "direct" links to a single domain (the safe
// serial fallback), where Send delivers straight onto the destination
// domain's event queue.
type Group struct {
	domains []*Sim
	links   []*Link
	delta   Duration   // lookahead; computed when a run starts
	pending []delivery // barrier merge scratch, reused across epochs
	horizon Time       // end of the current epoch window
	last    bool       // the current epoch has no representable horizon
	stats   GroupStats
	running bool
}

// GroupStats counts what the epoch loop did. The counters are bumped at
// barriers, so they are a function of the program, not of the host.
type GroupStats struct {
	Epochs   uint64 // epoch windows run
	Active   uint64 // domains that had an event inside their window, summed over epochs
	Messages uint64 // cross-domain sends merged at barriers
}

// Link is a unidirectional cross-domain channel created by
// Group.Connect: Send(v) from the source domain delivers v onto the
// destination queue `latency` later in virtual time. Send may only be
// called from the source domain's execution (its threads or scheduler
// callbacks), and only while the group is running or before the first
// run.
type Link struct {
	id      int
	src     *Sim
	dst     *Sim
	q       *Queue
	latency Duration
	direct  bool // zero latency: deliver immediately, no epoch buffering
	seq     uint64
	outbox  []xmsg
}

// xmsg is one buffered cross-domain send awaiting the epoch barrier.
type xmsg struct {
	at  Time
	seq uint64
	v   any
}

// delivery is one merged barrier delivery; the sort key (at, id, seq)
// is domain-layout-independent, which is what makes serial and sharded
// runs bit-identical.
type delivery struct {
	at  Time
	id  int
	seq uint64
	dst *Sim
	q   *Queue
	v   any
}

// NewGroup returns a group of n fresh time domains. Domain 0 is the
// "home" domain: single-domain callers use it exactly like a bare Sim.
func NewGroup(n int) *Group {
	if n < 1 {
		panic("vclock: NewGroup needs at least one domain")
	}
	g := &Group{domains: make([]*Sim, n)}
	for i := range g.domains {
		g.domains[i] = New()
	}
	return g
}

// Domains reports the number of time domains in the group.
func (g *Group) Domains() int { return len(g.domains) }

// Domain returns the i-th time domain.
func (g *Group) Domain(i int) *Sim {
	if i < 0 || i >= len(g.domains) {
		panic(fmt.Sprintf("vclock: domain %d out of range [0,%d)", i, len(g.domains)))
	}
	return g.domains[i]
}

func (g *Group) owns(s *Sim) bool {
	for _, d := range g.domains {
		if d == s {
			return true
		}
	}
	return false
}

// Connect declares a link from src's execution onto dst, delivering
// `latency` later in virtual time. Links must be declared in the same
// order in every run — the declaration index is part of the barrier
// merge key. A non-positive latency makes the link "direct" (immediate
// delivery with no epoch buffering), which is only legal when source
// and destination share a domain: a zero-latency cross-domain edge has
// no lookahead, so the caller must fall back to placing both sides on
// one domain.
func (g *Group) Connect(src *Sim, dst *Queue, latency Duration) *Link {
	if g.running {
		panic("vclock: Connect while the group is running")
	}
	if !g.owns(src) {
		panic("vclock: Connect source is not a domain of this group")
	}
	if !g.owns(dst.sim) {
		panic("vclock: Connect destination queue is not on a domain of this group")
	}
	direct := latency <= 0
	if direct && src != dst.sim {
		panic("vclock: zero-latency link across domains (no lookahead); co-locate both sides or give the link positive latency")
	}
	l := &Link{id: len(g.links), src: src, dst: dst.sim, q: dst, latency: latency, direct: direct}
	g.links = append(g.links, l)
	return l
}

// Send delivers v onto the link's destination queue l.latency after the
// source domain's current time. On a direct (zero-latency, same-domain)
// link the delivery event is pushed immediately; otherwise the send
// waits in the link's outbox for the epoch barrier.
func (l *Link) Send(v any) {
	at := l.src.now.Add(l.latency)
	if l.direct {
		l.src.deliver(at, l.q, v)
		return
	}
	l.outbox = append(l.outbox, xmsg{at: at, seq: l.seq, v: v})
	l.seq++
}

// Lookahead reports the epoch width the group will run with: the
// minimum positive link latency, or 0 when no epoch link exists (the
// domains are then independent and run without barriers).
func (g *Group) Lookahead() Duration {
	var d Duration
	for _, l := range g.links {
		if l.direct {
			continue
		}
		if d == 0 || l.latency < d {
			d = l.latency
		}
	}
	return d
}

// Stats reports the epoch loop's counters so far. Call it between runs,
// not from inside one.
func (g *Group) Stats() GroupStats { return g.stats }

// Counters reports the kernel counters of the whole group: every field
// summed over the domains, except PendingMax, which is the largest any
// one domain's queue grew. Like Stats, call it between runs.
func (g *Group) Counters() Counters {
	var c Counters
	for _, s := range g.domains {
		d := s.Counters()
		c.Scheduled += d.Scheduled
		c.SameInstant += d.SameInstant
		c.Moved += d.Moved
		c.Pending += d.Pending
		c.PendingMax = max(c.PendingMax, d.PendingMax)
		c.Wakes += d.Wakes
		c.Starts += d.Starts
		c.Kills += d.Kills
		c.Callbacks += d.Callbacks
		c.Deliveries += d.Deliveries
		c.Skipped += d.Skipped
		c.SleepsInline += d.SleepsInline
		c.SleepsScheduled += d.SleepsScheduled
		c.FrameSteps += d.FrameSteps
		c.Switches += d.Switches
		c.Reserves += d.Reserves
		c.ReservesQueued += d.ReservesQueued
	}
	return c
}

// Run drives every domain until no events remain anywhere and all
// outboxes have drained.
func (g *Group) Run() { g.RunUntil(nil) }

// RunUntil drives the group until stop returns true or no events
// remain. With epoch links the stop predicate is evaluated at epoch
// barriers only — every domain quiescent, exchanged messages delivered
// — so it may read state owned by any domain; barrier granularity (at
// most one lookahead of virtual time) is the price of that safety.
// Without epoch links the domains are independent: domain 0 runs under
// the predicate, then the remaining domains run to completion in domain
// order, exactly as if each had been driven by its own RunUntil.
func (g *Group) RunUntil(stop func() bool) {
	if g.running {
		panic("vclock: Group.RunUntil called re-entrantly")
	}
	g.running = true
	defer func() { g.running = false }()
	g.delta = g.Lookahead()
	if g.delta == 0 {
		g.domains[0].RunUntil(stop)
		for _, s := range g.domains[1:] {
			s.Run()
		}
		return
	}
	g.epochRun(stop)
}

// epochRun is the conservative PDES loop: find the globally earliest
// pending event time m, advance every domain with an event before the
// horizon — the next Δ-grid point strictly after m — then exchange
// buffered cross-domain messages in deterministic order. Aligning
// horizons to the Δ grid (rather than to m+Δ) keeps barrier instants a
// function of the event set alone, so they are identical for every
// domain layout.
//
// Conservatism: any message sent during the epoch leaves at some t >= m
// and is delivered at t+L >= m+Δ >= h, so no domain ever runs past a
// message it has not yet received. Skipping empty grid slots (h derived
// from m, not incremented) costs nothing in fidelity: barriers with no
// work on either side deliver nothing.
//
// The active domains run one after another, in domain order; any order
// would do, since a domain's events depend on its own event queue alone
// and what the domains hand each other goes through exchange's (at, id,
// seq) merge. A domain whose earliest event is at or past h is skipped —
// its RunBefore would return before popping anything.
func (g *Group) epochRun(stop func() bool) {
	d := int64(g.delta)
	for {
		if g.Crashed() != nil {
			return
		}
		if stop != nil && stop() {
			return
		}
		m, ok := g.nextEventTime()
		if !ok {
			return
		}
		// When the next grid point is past the end of representable time
		// this is the last epoch there can be: nothing sent in it could be
		// due before it ends, so its domains run without a horizon.
		g.last = int64(m)/d >= math.MaxInt64/d
		if !g.last {
			g.horizon = Time((int64(m)/d + 1) * d)
		}
		g.stats.Epochs++
		for _, s := range g.domains {
			switch {
			case s.q.n == 0:
			case g.last:
				g.stats.Active++
				s.Run()
			case s.q.next < g.horizon:
				g.stats.Active++
				s.RunBefore(g.horizon)
			}
		}
		g.exchange()
	}
}

// nextEventTime reports the earliest pending event time across all
// domains. It is a function of the union of pending events, so it is
// identical for every domain layout of the same program.
func (g *Group) nextEventTime() (Time, bool) {
	var m Time
	found := false
	for _, s := range g.domains {
		if s.q.n == 0 {
			continue
		}
		if t := s.q.next; !found || t < m {
			m, found = t, true
		}
	}
	return m, found
}

// exchange gathers every link's outbox, sorts by (deliverAt, link id,
// per-link seq) and pushes delivery events onto the destination event
// queues in that order. Same-instant events leave a queue in push order,
// so pushing in sorted order fixes every tie-break independently of the
// domain layout.
func (g *Group) exchange() {
	g.pending = g.pending[:0]
	for _, l := range g.links {
		for _, m := range l.outbox {
			g.pending = append(g.pending, delivery{at: m.at, id: l.id, seq: m.seq, dst: l.dst, q: l.q, v: m.v})
		}
		clear(l.outbox)
		l.outbox = l.outbox[:0]
	}
	p := g.pending
	if len(p) == 0 {
		return
	}
	g.stats.Messages += uint64(len(p))
	slices.SortFunc(p, func(a, b delivery) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id), cmp.Compare(a.seq, b.seq))
	})
	for i := range p {
		p[i].dst.deliver(p[i].at, p[i].q, p[i].v)
		p[i].v = nil
	}
}

// Now reports the group's clock: the maximum domain clock. At a barrier
// every domain has advanced to the same horizon's edge, so this is the
// virtual time the run as a whole has reached; it is independent of the
// domain layout because each domain's clock stops at its last executed
// event.
func (g *Group) Now() Time {
	var t Time
	for _, s := range g.domains {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// Crashed returns the earliest captured crash across the domains (ties
// broken by domain index), or nil. A crash in any domain halts the
// epoch loop at the next barrier; domains that were mid-epoch finish
// their window first, so — unlike a clean run — the post-crash
// simulation state is not guaranteed bit-identical across layouts. The
// crash itself is: it happened inside one domain's deterministic event
// order.
func (g *Group) Crashed() *Crash {
	var best *Crash
	for _, s := range g.domains {
		c := s.crash
		if c == nil {
			continue
		}
		if best == nil || c.At < best.At {
			best = c
		}
	}
	return best
}

// Shutdown unwinds parked threads in every domain, domain order. Call
// only after RunUntil has returned.
func (g *Group) Shutdown() {
	for _, s := range g.domains {
		s.Shutdown()
	}
}
