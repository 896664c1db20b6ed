package vclock

// Queue is an unbounded FIFO queue connecting simulated threads (and
// scheduler callbacks) to simulated threads. Put never blocks; Get blocks
// the calling thread until an item is available. Items are delivered in
// FIFO order and waiting threads are served in FIFO order, so behaviour is
// deterministic.
// Consumed slots are tracked with head indexes rather than by reslicing
// from the front: items[1:] permanently gives up a slot of capacity, so
// a queue that oscillates around empty — the steady state of every
// worker loop — would reallocate its backing array on nearly every
// Put/Get cycle. With head indexes the arrays are compacted in place
// once drained and reach a steady capacity with no per-cycle
// allocation.
type Queue struct {
	Name string

	sim     *Sim
	items   []any
	ihead   int // items[:ihead] already served
	waiters []*Thread
	whead   int // waiters[:whead] already woken
	puts    int64
	gets    int64
	maxLen  int
}

// NewQueue returns an empty queue attached to s.
func (s *Sim) NewQueue(name string) *Queue {
	return &Queue{Name: name, sim: s}
}

// Len reports the number of items currently buffered.
func (q *Queue) Len() int { return len(q.items) - q.ihead }

// Stats reports the total number of puts and gets and the maximum buffered
// length observed.
func (q *Queue) Stats() (puts, gets int64, maxLen int) {
	return q.puts, q.gets, q.maxLen
}

// Put appends v to the queue, waking the longest-waiting getter if any.
// It never blocks and may be called from scheduler callbacks as well as
// from simulated threads.
func (q *Queue) Put(v any) {
	q.puts++
	for q.whead < len(q.waiters) {
		w := q.waiters[q.whead]
		q.waiters[q.whead] = nil
		q.whead++
		if q.whead == len(q.waiters) {
			q.waiters = q.waiters[:0]
			q.whead = 0
		}
		if w.dead {
			// The waiter was killed while parked here; the item goes to
			// the next waiter (or the buffer) instead of vanishing into
			// a dead thread.
			continue
		}
		q.gets++
		q.sim.wakeAt(q.sim.now, w, v)
		return
	}
	if q.ihead > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.ihead:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.ihead = 0
	}
	q.items = append(q.items, v)
	if n := len(q.items) - q.ihead; n > q.maxLen {
		q.maxLen = n
	}
}

// Get removes and returns the oldest item in the queue, blocking the
// calling thread until one is available. The item rides the wake-up
// payload unboxed: a thread parked in Get can only ever be woken by a
// Put hand-off (a parked thread waits for exactly one reason), so the
// payload — even a legitimate nil — is the delivered item.
func (t *Thread) Get(q *Queue) any {
	t.mustRun()
	return t.park(t.coro.Get(q, driveBody))
}

// timeoutWake is the payload a GetTimeout timer delivers; unexported, so
// a Put can never legitimately hand it over.
type timeoutWake struct{}

// GetTimeout is Get bounded to d of virtual time: it returns (item,
// true) if one arrives in time, or (nil, false) once d elapses with the
// thread still waiting. The timer is an ordinary scheduled event, so a
// timeout is as deterministic as any other wake-up. A non-positive d
// degrades to TryGet. This is the client-side timeout primitive under
// retry-with-backoff request handling.
func (t *Thread) GetTimeout(q *Queue, d Duration) (any, bool) {
	t.mustRun()
	v := t.park(t.coro.GetTimeout(q, d, driveBody))
	return v, !t.coro.timedOut
}

// enqueueWaiter appends t to the waiter list, compacting consumed slots
// first (same steady-capacity discipline as the item buffer).
func (q *Queue) enqueueWaiter(t *Thread) {
	if q.whead > 0 && len(q.waiters) == cap(q.waiters) {
		n := copy(q.waiters, q.waiters[q.whead:])
		clear(q.waiters[n:])
		q.waiters = q.waiters[:n]
		q.whead = 0
	}
	q.waiters = append(q.waiters, t)
}

// removeWaiter withdraws t from the waiter list, preserving FIFO order
// of the rest. It reports whether t was still waiting.
func (q *Queue) removeWaiter(t *Thread) bool {
	for i := q.whead; i < len(q.waiters); i++ {
		if q.waiters[i] != t {
			continue
		}
		copy(q.waiters[i:], q.waiters[i+1:])
		q.waiters[len(q.waiters)-1] = nil
		q.waiters = q.waiters[:len(q.waiters)-1]
		if q.whead == len(q.waiters) {
			q.waiters = q.waiters[:0]
			q.whead = 0
		}
		return true
	}
	return false
}

// TryGet removes and returns the oldest item if one is buffered; it never
// blocks. The second result reports whether an item was returned.
func (t *Thread) TryGet(q *Queue) (any, bool) {
	if q.ihead == len(q.items) {
		return nil, false
	}
	v := q.items[q.ihead]
	q.items[q.ihead] = nil
	q.ihead++
	if q.ihead == len(q.items) {
		q.items = q.items[:0]
		q.ihead = 0
	}
	q.gets++
	return v, true
}
