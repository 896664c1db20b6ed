package vclock

// LockMode distinguishes shared (reader) from exclusive (writer) lock
// acquisitions.
type LockMode uint8

const (
	// Shared allows concurrent holders that all acquired in Shared mode.
	Shared LockMode = iota
	// Exclusive allows exactly one holder.
	Exclusive
)

func (m LockMode) String() string {
	if m == Exclusive {
		return "exclusive"
	}
	return "shared"
}

// LockObserver receives lock events; the crosstalk monitor implements it.
// All durations are virtual. blockers is the set of threads holding the
// lock at the moment the waiter started waiting (nil when the acquisition
// was immediate).
type LockObserver interface {
	LockAcquired(l *Lock, t *Thread, mode LockMode, wait Duration, blockers []*Thread)
	LockReleased(l *Lock, t *Thread, mode LockMode, held Duration)
}

// LockWaitObserver is implemented by a LockObserver that also wants to
// know when a request queues. blockers hold the lock at that moment, so
// whatever the observer needs to know about what they are doing (§6: the
// transaction each is executing) must be read here — by the time
// LockAcquired reports the wait they have released and moved on.
type LockWaitObserver interface {
	LockWaitStarted(l *Lock, t *Thread, blockers []*Thread)
}

type lockWaiter struct {
	t        *Thread
	mode     LockMode
	since    Time
	blockers []*Thread
}

type lockHolder struct {
	t     *Thread
	mode  LockMode
	since Time
}

// Lock is a reader/writer lock with FIFO fairness: requests are granted in
// arrival order; consecutive shared requests at the head of the line are
// granted together. This matches the behaviour the paper assumes (a writer
// blocks later readers, so crosstalk is visible in both directions).
type Lock struct {
	Name string

	sim      *Sim
	holders  []lockHolder
	waiters  []lockWaiter
	Observer LockObserver

	contended int64 // acquisitions that had to wait
	acquired  int64 // total acquisitions
	waitTotal Duration
}

// NewLock returns an unlocked lock attached to s.
func (s *Sim) NewLock(name string) *Lock {
	return &Lock{Name: name, sim: s}
}

// Stats reports total acquisitions, how many of them waited, and the total
// wait time accumulated.
func (l *Lock) Stats() (acquired, contended int64, waitTotal Duration) {
	return l.acquired, l.contended, l.waitTotal
}

// HeldBy reports whether t currently holds the lock (in either mode).
func (l *Lock) HeldBy(t *Thread) bool {
	for _, h := range l.holders {
		if h.t == t {
			return true
		}
	}
	return false
}

// Holders returns the threads currently holding the lock.
func (l *Lock) Holders() []*Thread {
	out := make([]*Thread, len(l.holders))
	for i, h := range l.holders {
		out[i] = h.t
	}
	return out
}

// Idle reports whether nothing holds the lock and nothing waits for it,
// so its owner may discard it.
func (l *Lock) Idle() bool { return len(l.holders) == 0 && len(l.waiters) == 0 }

func (l *Lock) grantable(mode LockMode) bool {
	if len(l.holders) == 0 {
		return true
	}
	if mode == Exclusive {
		return false
	}
	// Shared: grantable only if every holder is shared.
	for _, h := range l.holders {
		if h.mode == Exclusive {
			return false
		}
	}
	return true
}

// request is the bookkeeping of one acquisition attempt by t (Coro.Lock):
// the lock is either granted on the spot (queued false) or t's request
// joins the waiter list, and the caller must block t and call granted
// with the returned record once the releaser's wake arrives. Recursive
// acquisition is not supported and panics, as it would self-deadlock.
func (l *Lock) request(t *Thread, mode LockMode) (w lockWaiter, queued bool) {
	if l.HeldBy(t) {
		panic("vclock: recursive lock acquisition by " + t.Name + " on " + l.Name)
	}
	l.acquired++
	// FIFO fairness: even a grantable shared request must queue behind
	// earlier waiters so writers are not starved.
	if len(l.waiters) == 0 && l.grantable(mode) {
		l.holders = append(l.holders, lockHolder{t, mode, l.sim.now})
		if l.Observer != nil {
			l.Observer.LockAcquired(l, t, mode, 0, nil)
		}
		return w, false
	}
	l.contended++
	w = lockWaiter{t: t, mode: mode, since: l.sim.now, blockers: l.Holders()}
	l.waiters = append(l.waiters, w)
	if o, ok := l.Observer.(LockWaitObserver); ok {
		o.LockWaitStarted(l, t, w.blockers)
	}
	return w, true
}

// granted accounts a queued request's wait once its thread runs again
// (Coro.resume): the releaser has already installed it as a holder.
func (l *Lock) granted(t *Thread, mode LockMode, since Time, blockers []*Thread) {
	wait := l.sim.now.Sub(since)
	l.waitTotal += wait
	if l.Observer != nil {
		l.Observer.LockAcquired(l, t, mode, wait, blockers)
	}
}

// Lock acquires l in the given mode, blocking the calling thread until the
// acquisition is granted.
func (t *Thread) Lock(l *Lock, mode LockMode) {
	t.mustRun()
	t.park(t.coro.Lock(l, mode, driveBody))
}

// Unlock releases the calling thread's hold on l and grants the lock to
// the next waiters per FIFO policy. It panics if t does not hold l.
func (t *Thread) Unlock(l *Lock) {
	idx := -1
	for i, h := range l.holders {
		if h.t == t {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("vclock: unlock of " + l.Name + " by non-holder " + t.Name)
	}
	h := l.holders[idx]
	l.holders = append(l.holders[:idx], l.holders[idx+1:]...)
	if l.Observer != nil {
		l.Observer.LockReleased(l, t, h.mode, l.sim.now.Sub(h.since))
	}
	l.grantWaiters()
}

// grantWaiters admits the longest-waiting requests that are now grantable:
// either one exclusive waiter, or the maximal prefix of shared waiters.
func (l *Lock) grantWaiters() {
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if w.t.dead {
			// The waiter was killed while queued; drop its request so it
			// neither blocks later waiters nor becomes a zombie holder.
			l.waiters = l.waiters[1:]
			continue
		}
		if !l.grantable(w.mode) {
			return
		}
		l.waiters = l.waiters[1:]
		l.holders = append(l.holders, lockHolder{w.t, w.mode, l.sim.now})
		l.sim.wakeAt(l.sim.now, w.t, nil)
		if w.mode == Exclusive {
			return
		}
	}
}
