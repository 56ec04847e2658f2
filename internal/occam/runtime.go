package occam

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Priority is a process priority level. The transputer hardware
// scheduler had exactly two: high-priority processes run whenever
// runnable, ahead of any low-priority process.
type Priority int

const (
	// Low is the default priority.
	Low Priority = iota
	// High priority processes are always scheduled before Low ones.
	High
)

func (p Priority) String() string {
	if p == High {
		return "high"
	}
	return "low"
}

// errKilled unwinds process goroutines during Runtime.Shutdown.
var errKilled = errors.New("occam: runtime shut down")

// ErrDeadlock is returned (wrapped in a DeadlockError) by Run when no
// process is runnable and no timer is pending but processes remain.
var ErrDeadlock = errors.New("occam: deadlock")

// DeadlockError reports the blocked processes when a simulation can
// make no further progress.
type DeadlockError struct {
	Now   Time
	Procs []string // "name [pri] state"
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("occam: deadlock at %v with %d blocked processes:\n  %s",
		e.Now, len(e.Procs), strings.Join(e.Procs, "\n  "))
}

func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// statusKind classifies what a process is blocked on. The textual
// status shown in deadlock dumps is composed lazily from these fields
// (statusText); building the string eagerly on every park was a top
// allocation source on the data path.
type statusKind uint8

const (
	stRunning statusKind = iota
	stRunnable
	stYield
	stSend
	stRecv
	stSleep
	stAlt
	stCPU
	stWait
)

// Proc is an Occam process: a goroutine scheduled by the virtual-time
// Runtime. All blocking primitives take the Proc as receiver and may
// only be called from the process's own goroutine while it is the
// currently scheduled process.
type Proc struct {
	rt   *Runtime
	node *Node
	name string
	pri  Priority
	wake chan struct{}
	seq  uint64

	// Blocked-state diagnostics (see statusText).
	stKind statusKind
	stName string        // channel or node name (send/recv/cpu)
	stTime Time          // sleep deadline
	stDur  time.Duration // cpu grant duration
	stN    int           // alt guard count

	// alt is the per-process alternation state, reused across Alt
	// calls: a process runs at most one alternation at a time and
	// every registration is removed before Alt returns.
	alt altState
}

// statusText composes the diagnostic description of what the process
// is blocked on, for deadlock dumps and scheduler traces.
func (p *Proc) statusText() string {
	switch p.stKind {
	case stRunning:
		return "running"
	case stRunnable:
		return "runnable"
	case stYield:
		return "yield"
	case stSend:
		return "send " + p.stName
	case stRecv:
		return "recv " + p.stName
	case stSleep:
		return fmt.Sprintf("sleep until %v", p.stTime)
	case stAlt:
		return fmt.Sprintf("alt over %d guards", p.stN)
	case stCPU:
		return fmt.Sprintf("cpu %s for %v", p.stName, p.stDur)
	case stWait:
		return "wait " + p.stName
	}
	return "?"
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Node returns the transputer this process runs on (nil if none).
func (p *Proc) Node() *Node { return p.node }

// Priority returns the process priority.
func (p *Proc) Priority() Priority { return p.pri }

// Runtime returns the runtime the process belongs to.
func (p *Proc) Runtime() *Runtime { return p.rt }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.rt.Now() }

// timerEv is a pending timer: it wakes a process, completes a CPU
// grant, or runs fn in scheduler context (fn must only touch
// runtime-internal state). Events not referenced from outside the heap
// (pinned == false) are recycled on a free list after firing.
type timerEv struct {
	at        Time
	seq       uint64
	p         *Proc
	fn        func()
	grant     *Node // non-nil: a CPU grant for p completes on this node
	pinned    bool  // embedded in a Timer; never recycle
	cancelled bool
	index     int
}

type timerHeap []*timerEv

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	ev := x.(*timerEv)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Runtime is a deterministic virtual-time scheduler for Occam
// processes. Exactly one process executes user code at a time; when
// every process is blocked the clock jumps to the next timer event.
// Create with NewRuntime, start processes with Go, then drive the
// simulation with Run or RunUntil.
type Runtime struct {
	mu       sync.Mutex
	now      Time
	seq      uint64
	runqHigh []*Proc
	runqLow  []*Proc
	timers   timerHeap
	evFree   []*timerEv // recycled timer events
	limit    Time
	procs    map[*Proc]struct{}
	killed   bool
	rootCh   chan struct{}
	rootWait bool
	running  bool // inside Run
	wg       sync.WaitGroup

	// Trace, if non-nil, receives a line for every scheduling event.
	// For debugging; nil in normal use.
	Trace func(string)

	switches uint64 // context switches performed (experiment E17)
}

// NewRuntime returns an empty runtime at time zero.
func NewRuntime() *Runtime {
	return &Runtime{
		procs:  make(map[*Proc]struct{}),
		rootCh: make(chan struct{}, 1),
		limit:  Forever,
	}
}

// Now returns the current virtual time.
func (rt *Runtime) Now() Time {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.now
}

// Switches returns the number of context switches performed so far.
func (rt *Runtime) Switches() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.switches
}

// NumProcs returns the number of live (started, not yet exited)
// processes.
func (rt *Runtime) NumProcs() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.procs)
}

// Go starts a new process named name at priority pri on node (which
// may be nil for a process with no CPU accounting). The process body
// fn runs when the runtime next schedules it. Go may be called before
// Run or from inside another process.
func (rt *Runtime) Go(name string, node *Node, pri Priority, fn func(p *Proc)) *Proc {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.killed {
		panic("occam: Go after Shutdown")
	}
	rt.seq++
	p := &Proc{
		rt:   rt,
		node: node,
		name: name,
		pri:  pri,
		wake: make(chan struct{}, 1),
		seq:  rt.seq,
	}
	rt.procs[p] = struct{}{}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if r == errKilled {
					// Clean shutdown unwind: deregister the process.
					rt.mu.Lock()
					delete(rt.procs, p)
					rt.mu.Unlock()
					return
				}
				panic(fmt.Sprintf("occam: process %q panicked: %v", p.name, r))
			}
		}()
		<-p.wake // wait to be scheduled for the first time
		rt.mu.Lock()
		if rt.killed {
			rt.mu.Unlock()
			panic(errKilled)
		}
		rt.mu.Unlock()
		fn(p)
		rt.exit(p)
	}()
	rt.ready(p)
	return p
}

// exit removes a finished process and hands the CPU to the scheduler.
func (rt *Runtime) exit(p *Proc) {
	rt.mu.Lock()
	delete(rt.procs, p)
	if rt.Trace != nil {
		rt.trace("exit %s", p.name)
	}
	rt.schedule()
	rt.mu.Unlock()
}

// ready appends p to the run queue for its priority. Caller holds mu.
func (rt *Runtime) ready(p *Proc) {
	p.stKind = stRunnable
	if p.pri == High {
		rt.runqHigh = append(rt.runqHigh, p)
	} else {
		rt.runqLow = append(rt.runqLow, p)
	}
}

// popRunnable removes and returns the next process to run, or nil.
// Caller holds mu.
func (rt *Runtime) popRunnable() *Proc {
	if len(rt.runqHigh) > 0 {
		p := rt.runqHigh[0]
		copy(rt.runqHigh, rt.runqHigh[1:])
		rt.runqHigh = rt.runqHigh[:len(rt.runqHigh)-1]
		return p
	}
	if len(rt.runqLow) > 0 {
		p := rt.runqLow[0]
		copy(rt.runqLow, rt.runqLow[1:])
		rt.runqLow = rt.runqLow[:len(rt.runqLow)-1]
		return p
	}
	return nil
}

// schedule hands the CPU to the next runnable process, advancing the
// clock through timer events as needed. If nothing can run before the
// limit it wakes the root (Run). Caller holds mu and is giving up the
// CPU (it is blocked, exiting, or is the root).
func (rt *Runtime) schedule() {
	for {
		if p := rt.popRunnable(); p != nil {
			rt.switches++
			p.stKind = stRunning
			if rt.Trace != nil {
				rt.trace("run %s", p.name)
			}
			p.wake <- struct{}{}
			return
		}
		if !rt.advanceClock() {
			return
		}
	}
}

// advanceClock is schedule's nothing-runnable step: it discards
// cancelled timers, advances the clock to the next event and fires
// everything due at that instant. It returns false when there is
// nothing left to run before the limit (the root has been woken) and
// true when timers fired, so the caller should re-check the run queue.
// Caller holds mu.
func (rt *Runtime) advanceClock() bool {
	for rt.timers.Len() > 0 && rt.timers[0].cancelled {
		rt.freeTimerEv(heap.Pop(&rt.timers).(*timerEv))
	}
	if rt.timers.Len() == 0 {
		// Quiescent with no future event: completion, or the end
		// of a bounded run, or deadlock.
		if rt.limit != Forever && rt.limit > rt.now {
			rt.now = rt.limit
		}
		rt.wakeRoot()
		return false
	}
	next := rt.timers[0]
	if next.at > rt.limit {
		rt.now = rt.limit
		rt.wakeRoot()
		return false
	}
	if next.at > rt.now {
		rt.now = next.at
	}
	// Fire every timer due at this instant, in insertion order.
	for rt.timers.Len() > 0 && rt.timers[0].at <= rt.now {
		ev := heap.Pop(&rt.timers).(*timerEv)
		if ev.cancelled {
			rt.freeTimerEv(ev)
			continue
		}
		switch {
		case ev.grant != nil:
			n := ev.grant
			n.busy = false
			rt.ready(ev.p)
			n.grantNext()
		case ev.fn != nil:
			ev.fn()
		case ev.p != nil:
			if rt.Trace != nil {
				rt.trace("timer wakes %s", ev.p.name)
			}
			rt.ready(ev.p)
		}
		rt.freeTimerEv(ev)
	}
	return true
}

func (rt *Runtime) wakeRoot() {
	if rt.rootWait {
		rt.rootWait = false
		rt.rootCh <- struct{}{}
	}
}

func (rt *Runtime) trace(format string, args ...any) {
	if rt.Trace != nil {
		rt.Trace(fmt.Sprintf("[%v] ", rt.now) + fmt.Sprintf(format, args...))
	}
}

// addTimer inserts a timer event. Caller holds mu.
func (rt *Runtime) addTimer(at Time, p *Proc, fn func()) *timerEv {
	if at < rt.now {
		at = rt.now
	}
	rt.seq++
	var ev *timerEv
	if n := len(rt.evFree); n > 0 {
		ev = rt.evFree[n-1]
		rt.evFree = rt.evFree[:n-1]
		*ev = timerEv{at: at, seq: rt.seq, p: p, fn: fn}
	} else {
		ev = &timerEv{at: at, seq: rt.seq, p: p, fn: fn}
	}
	heap.Push(&rt.timers, ev)
	return ev
}

// freeTimerEv recycles a popped event unless a Timer owns it
// (pinned). Caller holds mu.
func (rt *Runtime) freeTimerEv(ev *timerEv) {
	if ev.pinned {
		return
	}
	ev.p, ev.fn, ev.grant = nil, nil, nil
	rt.evFree = append(rt.evFree, ev)
}

// park blocks the calling process until another process or a timer
// makes it ready again. Caller holds mu; park returns with mu held.
// On Shutdown, park panics with errKilled while still holding mu, so
// every caller must release mu with defer.
// kind and name describe what the process is waiting for
// (diagnostics); callers set the auxiliary stTime/stDur/stN fields
// for the kinds that use them before calling.
func (rt *Runtime) park(p *Proc, kind statusKind, name string) {
	p.stKind, p.stName = kind, name
	if rt.Trace != nil {
		rt.trace("park %s: %s", p.name, p.statusText())
	}
	// Inline schedule() with a self-handoff fast path: when the next
	// process to run is the one parking (its own timer fired during the
	// clock advance, or it was readied before parking), skip the wake
	// channel round-trip entirely — the paced-loop case (sleep, wake,
	// sleep...) costs two heap operations and no channel traffic.
	for {
		next := rt.popRunnable()
		if next == nil {
			if rt.advanceClock() {
				continue
			}
			break // nothing to run before the limit; root woken
		}
		rt.switches++
		next.stKind = stRunning
		if rt.Trace != nil {
			rt.trace("run %s", next.name)
		}
		if next == p {
			if rt.killed {
				panic(errKilled)
			}
			return
		}
		next.wake <- struct{}{}
		break
	}
	rt.mu.Unlock()
	<-p.wake
	rt.mu.Lock()
	if rt.killed {
		panic(errKilled)
	}
	p.stKind = stRunning
}

// Run drives the simulation until every process has exited or the
// system deadlocks. Equivalent to RunUntil(Forever).
func (rt *Runtime) Run() error { return rt.RunUntil(Forever) }

// RunFor drives the simulation for d of virtual time past the current
// instant.
func (rt *Runtime) RunFor(d time.Duration) error {
	return rt.RunUntil(rt.Now().Add(d))
}

// RunUntil drives the simulation until virtual time t. It returns when
// the system is quiescent with no event before t (clock set to t),
// when every process has exited (nil), or on deadlock (a
// *DeadlockError). It may be called repeatedly with increasing t.
func (rt *Runtime) RunUntil(t Time) error {
	rt.mu.Lock()
	if rt.running {
		rt.mu.Unlock()
		panic("occam: RunUntil re-entered")
	}
	if rt.killed {
		rt.mu.Unlock()
		return errors.New("occam: runtime has been shut down")
	}
	rt.running = true
	rt.limit = t
	rt.rootWait = true
	rt.schedule()
	rt.mu.Unlock()
	<-rt.rootCh
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.running = false
	rt.limit = Forever
	// A deadlock is only an error for an unbounded run: a bounded run
	// that goes quiescent early (server processes parked waiting for
	// input that will arrive in a later RunUntil) is a normal outcome.
	if t == Forever && len(rt.procs) > 0 && rt.timers.Len() == 0 &&
		len(rt.runqHigh) == 0 && len(rt.runqLow) == 0 {
		return &DeadlockError{Now: rt.now, Procs: rt.procDump()}
	}
	return nil
}

// procDump returns one diagnostic line per live process, sorted for
// stable output. Caller holds mu.
func (rt *Runtime) procDump() []string {
	lines := make([]string, 0, len(rt.procs))
	for p := range rt.procs {
		lines = append(lines, fmt.Sprintf("%s [%v] %s", p.name, p.pri, p.statusText()))
	}
	sort.Strings(lines)
	return lines
}

// Done reports whether every process has exited.
func (rt *Runtime) Done() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.procs) == 0
}

// Shutdown terminates all processes (unwinding their goroutines) and
// waits for them to exit. The runtime cannot be used afterwards. It is
// safe to call from the root goroutine after Run returns.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	if rt.killed {
		rt.mu.Unlock()
		return
	}
	rt.killed = true
	for p := range rt.procs {
		select {
		case p.wake <- struct{}{}:
		default: // already has a pending wake
		}
	}
	rt.mu.Unlock()
	rt.wg.Wait()
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.SleepUntil(p.rt.clock().Add(d))
}

// SleepUntil blocks the process until virtual time t (the Occam
// "timer ? AFTER t"). Returns immediately if t is in the past.
func (p *Proc) SleepUntil(t Time) {
	rt := p.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if t <= rt.now {
		return
	}
	rt.addTimer(t, p, nil)
	p.stTime = t
	rt.park(p, stSleep, "")
}

// Yield gives up the CPU, letting every other runnable process of the
// same or higher priority run before this one continues.
func (p *Proc) Yield() {
	rt := p.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ready(p)
	rt.park(p, stYield, "")
}

// clock returns rt.now without external locking races (helper for
// call sites that immediately pass the value back under mu).
func (rt *Runtime) clock() Time {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.now
}
