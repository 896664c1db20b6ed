package trace

import "whodunit"

// arrivals is what the two injection processes below share: where events
// are scheduled, the instant their times are offsets from, and where they
// go. step is the process's fire method, bound once: each callback
// re-schedules that one value for the next event, so an arrival costs a
// queue slot and no allocation (a closure per event was every allocation
// a mesh run made).
type arrivals struct {
	sim    *whodunit.Sim
	base   whodunit.Time
	inject func(ev Event)
	step   func()
}

// replay is Replay's cursor: the trace and the index of the event due,
// expanded when it fires.
type replay struct {
	arrivals
	tr *Trace
	i  int
}

func (r *replay) fire() {
	r.inject(r.tr.Event(r.i))
	if r.i++; r.i < len(r.tr.Events) {
		r.sim.At(r.base.Add(r.tr.Events[r.i].T), r.step)
	}
}

// Replay schedules every event of tr onto the app's virtual clock,
// offset from the clock's current position: inject(ev) runs in
// scheduler context at now+ev.T. Events chain — each callback schedules
// the next — so the injection sequence interleaves deterministically
// with the app's own work and the run is bit-reproducible at a fixed
// seed. Call before App.Run/RunUntil; drive the app with a stop
// predicate (e.g. all events completed) since mesh worker loops never
// terminate on their own.
func Replay(app *whodunit.App, tr *Trace, inject func(ev Event)) {
	if len(tr.Events) == 0 {
		return
	}
	sim := app.Sim()
	r := &replay{arrivals: arrivals{sim: sim, base: sim.Now(), inject: inject}, tr: tr}
	r.step = r.fire
	sim.At(r.base.Add(tr.Events[0].T), r.step)
}

// openLoop is OpenLoop's cursor: the generator and the event due.
type openLoop struct {
	arrivals
	g   *gen
	due Event
}

func (o *openLoop) fire() {
	o.inject(o.due)
	o.due = o.g.event()
	o.sim.At(o.base.Add(o.due.T), o.step)
}

// OpenLoop installs an endless arrival process drawing events from
// cfg's generator on the fly — the serving-scenario counterpart of
// Replay. The injected sequence is exactly Gen(cfg) continued forever
// (cfg.Events is ignored), so a bounded open-loop run and a finite
// replay of the same shape see identical workloads.
func OpenLoop(app *whodunit.App, cfg GenConfig, inject func(ev Event)) {
	sim := app.Sim()
	o := &openLoop{arrivals: arrivals{sim: sim, base: sim.Now(), inject: inject}, g: newGen(cfg)}
	o.step = o.fire
	o.due = o.g.event()
	sim.At(o.base.Add(o.due.T), o.step)
}
