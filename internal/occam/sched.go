package occam

import "container/heap"

// Scheduler-context primitives: the machinery that lets a subsystem be
// *passive* — driven by timer callbacks and woken processes instead of
// by dedicated processes of its own. A message pipeline built from
// processes pays one park/wake cycle per rendezvous; built from a
// Timer chain it pays one heap operation per paced step and nothing at
// all for the zero-time bookkeeping in between. The fabric's crossbar,
// the ATM link transmitters and the decoupling buffers use these to
// keep their virtual-time behaviour while shedding almost all of their
// scheduling cost.
//
// Two execution contexts exist and must not be confused:
//
//   - process context: ordinary user code, running without the
//     scheduler lock. It may call every blocking primitive, arms
//     Timers with Timer.Schedule and sets Events with Event.Set.
//   - scheduler context: a Timer callback, running *inside* the
//     scheduler with the runtime lock held. It must not block and must
//     not call anything that re-enters the runtime (Proc methods,
//     channel operations, Runtime.Now). It receives a Sched capability
//     and goes through that for everything: Sched.Now, Sched.Schedule,
//     Sched.Set.
//
// Both contexts are serialised with all process code by the runtime
// lock, so callback code may touch the same plain data structures
// processes touch, with no extra locking.

// Sched is the capability handle passed to Timer callbacks. It proves
// the caller is in scheduler context (runtime lock held) and exposes
// the only operations legal there.
type Sched struct{ rt *Runtime }

// Now returns the current virtual time.
func (s Sched) Now() Time { return s.rt.now }

// Schedule arms tm to fire at time t (clamped to now). Panics if tm is
// already armed.
func (s Sched) Schedule(tm *Timer, t Time) { tm.scheduleLocked(t) }

// Set raises e from scheduler context.
func (s Sched) Set(e *Event) { e.setLocked() }

// Timer is a reusable scheduler-context callback: when armed, its
// function runs at the scheduled virtual instant, interleaved with
// process wake-ups in (time, arming-order) sequence. A Timer owns its
// heap event, so re-arming allocates nothing. One Timer is one pending
// event: it must not be armed again until it has fired (the callback
// itself may re-arm, which is how paced chains self-perpetuate).
type Timer struct {
	rt     *Runtime
	ev     timerEv
	active bool
}

// NewTimer returns an unarmed timer whose callback is fn. fn runs in
// scheduler context — see the package rules above.
func NewTimer(rt *Runtime, fn func(s Sched)) *Timer {
	tm := &Timer{rt: rt}
	tm.ev.pinned = true // owned here; never recycled onto the free list
	tm.ev.fn = func() {
		tm.active = false
		fn(Sched{rt})
	}
	return tm
}

// Schedule arms the timer to fire at time t (clamped to now). Call
// from process context; callbacks use Sched.Schedule. Panics if the
// timer is already armed.
func (tm *Timer) Schedule(t Time) {
	rt := tm.rt
	rt.mu.Lock()
	tm.scheduleLocked(t)
	rt.mu.Unlock()
}

// Active reports whether the timer is armed. Call from process
// context, or on scheduler-context state the caller already owns.
func (tm *Timer) Active() bool { return tm.active }

func (tm *Timer) scheduleLocked(t Time) {
	rt := tm.rt
	if tm.active {
		panic("occam: Timer scheduled while already armed")
	}
	if t < rt.now {
		t = rt.now
	}
	rt.seq++
	tm.ev.at, tm.ev.seq = t, rt.seq
	tm.ev.cancelled = false
	tm.active = true
	heap.Push(&rt.timers, &tm.ev)
}

// Event is a level-triggered wait condition: the bridge from passive
// state back to a blocked process. It holds one boolean level, which
// its owner raises (Set) and lowers (Clear) to mirror some condition of
// its own state — "a delivery is pending", "the queue has room". A
// process waits for the level either by blocking in Wait or by putting
// the Event itself in an Alt as a guard, which is ready while the level
// is high. Waiting never lowers the level: a waiter that finds it high
// returns at once, and whoever ends the mirrored condition clears it.
// At most one process may wait at a time, by either route.
//
// Set works from both contexts: Event.Set in process context, Sched.Set
// in a Timer callback.
type Event struct {
	rt  *Runtime
	nm  string
	set bool
	p   *Proc     // process blocked in Wait
	a   *altState // alternation holding the event as a guard
	idx int       // that guard's index
}

// NewEvent returns an event with its level low. The name shows up in
// deadlock dumps as what the waiting process is blocked on.
func NewEvent(rt *Runtime, name string) *Event {
	return &Event{rt: rt, nm: name}
}

// Wait blocks the process until the level is high. Returns immediately
// if it already is; the level is left as it is either way.
func (e *Event) Wait(p *Proc) {
	rt := e.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if e.set {
		return
	}
	e.claim()
	e.p = p
	rt.park(p, stWait, e.nm)
}

// Set raises the level, waking the waiter if there is one. Call from
// process context; callbacks use Sched.Set.
func (e *Event) Set() {
	e.rt.mu.Lock()
	e.setLocked()
	e.rt.mu.Unlock()
}

// Clear lowers the level. Call from process context.
func (e *Event) Clear() {
	e.rt.mu.Lock()
	e.set = false
	e.rt.mu.Unlock()
}

// IsSet reports the level. Call from process context, or on state the
// caller already owns.
func (e *Event) IsSet() bool { return e.set }

func (e *Event) setLocked() {
	if e.set {
		return
	}
	e.set = true
	if p := e.p; p != nil {
		e.p = nil
		e.rt.ready(p)
		return
	}
	if a := e.a; a != nil && !a.fired {
		a.fired = true
		a.chosen = e.idx
		e.rt.ready(a.p)
	}
}

// claim enforces the single-waiter rule. Caller holds mu.
func (e *Event) claim() {
	if e.p != nil || e.a != nil {
		panic("occam: Event already has a waiter: " + e.nm)
	}
}

// An Event is an Alt guard, ready while its level is high.
func (e *Event) poll(*Proc) bool { return e.set }

func (e *Event) enable(a *altState, idx int) {
	e.claim()
	e.a, e.idx = a, idx
}

func (e *Event) disable() { e.a = nil }
