// Package crosstalk measures interference between concurrent transactions
// caused by lock contention (paper §6, §7.5).
//
// The monitor observes lock acquire/release events (via vclock's
// LockObserver), measures the waiting time of each acquisition, looks up
// which transaction was holding the lock at the moment the waiter started
// waiting, and aggregates waits per ordered (waiting transaction type,
// holding transaction type) pair.
package crosstalk

import (
	"fmt"
	"io"
	"sort"

	"whodunit/internal/profiler"
	"whodunit/internal/vclock"
)

// Classifier maps a transaction context to a transaction *type* label
// (e.g. the TPC-W interaction name). Crosstalk is reported between types,
// as in Table 1.
type Classifier func(tc profiler.TxnCtxt) string

// TxnOf extracts the current transaction context of a simulated thread.
// The default implementation expects the thread's Data to be a
// *profiler.Probe (or a ProbeCarrier).
type TxnOf func(t *vclock.Thread) (profiler.TxnCtxt, bool)

// ProbeCarrier lets applications that store richer per-thread state in
// Thread.Data expose the probe to the monitor.
type ProbeCarrier interface {
	Probe() *profiler.Probe
}

// DefaultTxnOf resolves a thread's transaction context through Thread.Data
// holding either a *profiler.Probe or a ProbeCarrier.
func DefaultTxnOf(t *vclock.Thread) (profiler.TxnCtxt, bool) {
	switch v := t.Data.(type) {
	case *profiler.Probe:
		return v.Txn(), true
	case ProbeCarrier:
		if p := v.Probe(); p != nil {
			return p.Txn(), true
		}
	}
	return profiler.TxnCtxt{}, false
}

type pairKey struct{ waiter, holder string }

type stat struct {
	count int64
	total vclock.Duration
}

// PairStat is one row of the crosstalk matrix: waiter waited for holder.
type PairStat struct {
	Waiter string
	Holder string
	Count  int64
	Total  vclock.Duration
	Mean   vclock.Duration
}

// Monitor implements vclock.LockObserver and accumulates the crosstalk
// matrix. Attach it to every lock of interest (Lock.Observer = monitor).
type Monitor struct {
	Classify Classifier
	Resolve  TxnOf

	pairs   map[pairKey]*stat
	waiters map[string]*stat // per waiting transaction type, all waits

	// waiting maps a thread queued on a lock (a thread waits on at most
	// one) to the transaction types its blockers were executing when it
	// queued.
	waiting map[*vclock.Thread][]string
}

// NewMonitor returns a monitor classifying transactions with classify.
// A nil resolve uses DefaultTxnOf.
func NewMonitor(classify Classifier, resolve TxnOf) *Monitor {
	if resolve == nil {
		resolve = DefaultTxnOf
	}
	return &Monitor{
		Classify: classify,
		Resolve:  resolve,
		pairs:    make(map[pairKey]*stat),
		waiters:  make(map[string]*stat),
		waiting:  make(map[*vclock.Thread][]string),
	}
}

var (
	_ vclock.LockObserver     = (*Monitor)(nil)
	_ vclock.LockWaitObserver = (*Monitor)(nil)
)

func (m *Monitor) typeOf(t *vclock.Thread) string {
	tc, ok := m.Resolve(t)
	if !ok {
		return "(unknown)"
	}
	return m.Classify(tc)
}

// LockWaitStarted implements vclock.LockWaitObserver: the holders'
// transaction types are resolved now, while they hold the lock. Once the
// waiter runs again an ex-holder may be executing its next transaction,
// which never held anything the waiter wanted.
func (m *Monitor) LockWaitStarted(l *vclock.Lock, t *vclock.Thread, blockers []*vclock.Thread) {
	holders := make([]string, len(blockers))
	for i, b := range blockers {
		holders[i] = m.typeOf(b)
	}
	m.waiting[t] = holders
}

// LockAcquired implements vclock.LockObserver. A contended acquisition
// charges the full wait to each (waiter, holder) pair for the
// transactions holding the lock when the wait began; with exclusive locks
// there is exactly one holder. Called without a preceding
// LockWaitStarted for t, it resolves the holders from blockers as they
// are now.
func (m *Monitor) LockAcquired(l *vclock.Lock, t *vclock.Thread, mode vclock.LockMode, wait vclock.Duration, blockers []*vclock.Thread) {
	if wait <= 0 {
		return
	}
	wt := m.typeOf(t)
	ws, ok := m.waiters[wt]
	if !ok {
		ws = &stat{}
		m.waiters[wt] = ws
	}
	ws.count++
	ws.total += wait
	if holders, ok := m.waiting[t]; ok {
		delete(m.waiting, t)
		for _, ht := range holders {
			m.charge(wt, ht, wait)
		}
		return
	}
	for _, b := range blockers {
		m.charge(wt, m.typeOf(b), wait)
	}
}

func (m *Monitor) charge(waiter, holder string, wait vclock.Duration) {
	k := pairKey{waiter, holder}
	ps, ok := m.pairs[k]
	if !ok {
		ps = &stat{}
		m.pairs[k] = ps
	}
	ps.count++
	ps.total += wait
}

// LockReleased implements vclock.LockObserver. Crosstalk is a matter of
// waits, all of them accounted when the waiter acquires, so a release
// records nothing: classifying the releasing thread's transaction here
// would put a chain-registry lookup on every uncontended statement.
func (m *Monitor) LockReleased(l *vclock.Lock, t *vclock.Thread, mode vclock.LockMode, held vclock.Duration) {
}

// Pairs returns the crosstalk matrix rows sorted by descending total wait,
// ties by waiter then holder.
func (m *Monitor) Pairs() []PairStat {
	out := make([]PairStat, 0, len(m.pairs))
	for k, s := range m.pairs {
		out = append(out, PairStat{
			Waiter: k.waiter, Holder: k.holder,
			Count: s.count, Total: s.total,
			Mean: s.total / vclock.Duration(s.count),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Waiter != out[j].Waiter {
			return out[i].Waiter < out[j].Waiter
		}
		return out[i].Holder < out[j].Holder
	})
	return out
}

// WaitTotal reports the total time transactions of type label spent
// waiting on locks, and the number of waits.
func (m *Monitor) WaitTotal(label string) (vclock.Duration, int64) {
	s, ok := m.waiters[label]
	if !ok {
		return 0, 0
	}
	return s.total, s.count
}

// Render writes the crosstalk matrix as text.
func (m *Monitor) Render(w io.Writer) {
	fmt.Fprintf(w, "%-24s %-24s %8s %12s\n", "waiter", "holder", "count", "mean wait")
	for _, p := range m.Pairs() {
		fmt.Fprintf(w, "%-24s %-24s %8d %10.2fms\n", p.Waiter, p.Holder, p.Count, p.Mean.Millis())
	}
}
