package decouple

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/occam"
)

// Report is a decoupling buffer status report: "its present length
// (indicating where any delay is being introduced), size limit and
// pointer positions (indicating how active it is)".
type Report struct {
	Name   string
	Length int
	Limit  int
	Pushed uint64
	Popped uint64
}

func (r Report) String() string {
	return fmt.Sprintf("decouple %s: %d/%d queued, %d in, %d out",
		r.Name, r.Length, r.Limit, r.Pushed, r.Popped)
}

// Buffer is a decoupling buffer: a Ring plus a one-item offer slot,
// both driven from the producer's and the consumer's own processes.
// It has no process of its own. A Put or Deliver queues the item in
// the ring and, if the slot is empty, moves the ring's head into it; a
// Take empties the slot and refills it from the ring. The slot is the
// item the consumer takes next and sits outside the ring, so a buffer
// holds up to Limit()+1 items and Len counts the ring alone.
//
// Three occam.Events mirror the state for blocked processes: offered
// (the slot holds an item the consumer may take), notFull (the ring has
// room) and, with WithReady, ready (an owed TRUE reply awaits the
// sender). Every operation runs to completion in its caller's process
// and wakes at most the process on the other side.
type Buffer[T any] struct {
	name  string
	ring  *Ring[T]
	reg   *obs.Registry
	trace *obs.Tracer

	slot    T
	inSlot  bool
	offered *occam.Event
	notFull *occam.Event

	ready    *occam.Event // nil unless WithReady
	owedTrue bool         // a FALSE was replied; owe a TRUE when a slot frees

	stall   func(now occam.Time) occam.Time
	stalls  *obs.Counter
	held    bool         // the slot's item waits out an outage
	unstall *occam.Timer // ends the hold at the outage's end
}

// Option configures a Buffer.
type Option func(*options)

type options struct {
	ready bool
	reg   *obs.Registry
	stall func(now occam.Time) occam.Time
}

// WithReady attaches the ready protocol of figure 3.6: every input
// gets an immediate TRUE/FALSE reply, read through a Sender.
func WithReady() Option { return func(o *options) { o.ready = true } }

// WithObs registers the buffer's occupancy gauge and activity counters
// (labelled with the buffer name) on reg, and lets senders register
// their refusal counters.
func WithObs(reg *obs.Registry) Option { return func(o *options) { o.reg = reg } }

// WithStall attaches a fault-injection hook modelling a stuck consumer
// (a wedged output device): whenever an item enters the offer slot,
// fn is asked for the end of any outage covering the current time, and
// the item is held back from the consumer until then. While stalled the
// ring keeps filling normally, so upstream sees exactly the
// back-pressure a dead sink would cause. Each outage counts once on
// decouple_stalled_total{buffer=...} and emits an EvFault trace event
// (the items queued behind the held one reach the slot only after it
// ends). faultinject.Stalls converts outage windows into a suitable fn.
func WithStall(fn func(now occam.Time) occam.Time) Option {
	return func(o *options) { o.stall = fn }
}

// New creates a decoupling buffer whose ring holds capacity items.
func New[T any](rt *occam.Runtime, name string, capacity int, opts ...Option) *Buffer[T] {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	b := &Buffer[T]{
		name:    name,
		ring:    NewRing[T](capacity),
		reg:     o.reg,
		offered: occam.NewEvent(rt, name+".offered"),
		notFull: occam.NewEvent(rt, name+".notfull"),
	}
	b.notFull.Set()
	if o.ready {
		b.ready = occam.NewEvent(rt, name+".ready")
	}
	lb := obs.L("buffer", name)
	b.reg.GaugeFunc("decouple_queued", func() float64 { return float64(b.ring.Len()) }, lb)
	b.reg.GaugeFunc("decouple_limit", func() float64 { return float64(b.ring.Cap()) }, lb)
	b.reg.CounterFunc("decouple_pushed_total", b.ring.Pushed, lb)
	b.reg.CounterFunc("decouple_popped_total", b.ring.Popped, lb)
	b.trace = b.reg.Tracer()
	if o.stall != nil {
		b.stall = o.stall
		b.stalls = b.reg.Counter("decouple_stalled_total", lb)
		b.unstall = occam.NewTimer(rt, func(s occam.Sched) {
			b.held = false
			s.Set(b.offered)
		})
	}
	return b
}

// Put queues v, blocking while the ring is full "until an item has
// been read from the buffer". It is the producer side of a plain
// buffer; a buffer created WithReady is fed through a Sender.
func (b *Buffer[T]) Put(p *occam.Proc, v T) {
	if b.ready != nil {
		panic("decouple: Put on ready-protocol buffer " + b.name + "; use a Sender")
	}
	b.put(p, v)
}

// put queues v once the ring has room and returns the ready reply:
// whether the ring still has room, judged before the offer slot
// refills.
func (b *Buffer[T]) put(p *occam.Proc, v T) bool {
	for b.ring.Full() {
		b.notFull.Wait(p)
	}
	b.ring.Push(v)
	reply := !b.ring.Full()
	if !reply && b.ready != nil {
		b.owedTrue = true
	}
	b.refill(p)
	b.settle()
	return reply
}

// Take removes and returns the offered item, blocking until there is
// one.
func (b *Buffer[T]) Take(p *occam.Proc) T {
	b.offered.Wait(p)
	v, _ := b.TryTake(p)
	return v
}

// TryTake removes and returns the offered item if there is one,
// without blocking.
func (b *Buffer[T]) TryTake(p *occam.Proc) (T, bool) {
	var zero T
	if !b.inSlot || b.held {
		return zero, false
	}
	v := b.slot
	b.slot, b.inSlot = zero, false
	b.refill(p)
	b.settle()
	return v, true
}

// Offered returns a guard that is ready while an item is offered, for
// a consumer alternating over several buffers; Take after it fires.
func (b *Buffer[T]) Offered() occam.Guard { return b.offered }

// refill moves the ring's head into an empty offer slot. Taking a ring
// slot pays any owed TRUE, and the stall hook may hold the new item.
func (b *Buffer[T]) refill(p *occam.Proc) {
	if b.inSlot || b.ring.Empty() {
		return
	}
	b.slot, _ = b.ring.Pop()
	b.inSlot = true
	if b.owedTrue && !b.ring.Full() {
		// The slot the upstream is waiting for.
		b.owedTrue = false
		b.ready.Set()
	}
	if b.stall == nil {
		return
	}
	now := p.Now()
	if until := b.stall(now); until > now {
		b.stalls.Inc()
		b.trace.Emit(obs.EvFault, "decouple."+b.name, 0, "sink stalled")
		b.held = true
		b.unstall.Schedule(until)
	}
}

// settle brings the offered and notFull levels in line with the state,
// touching each event only when its level changes.
func (b *Buffer[T]) settle() {
	level(b.offered, b.inSlot && !b.held)
	level(b.notFull, !b.ring.Full())
}

func level(e *occam.Event, high bool) {
	switch {
	case high && !e.IsSet():
		e.Set()
	case !high && e.IsSet():
		e.Clear()
	}
}

// Len returns the ring's current occupancy (the offer slot excluded).
// The occam runtime runs exactly one process at a time, so the live
// value is safe to read from any process — the degrade controller's
// pressure probe.
func (b *Buffer[T]) Len() int { return b.ring.Len() }

// Limit returns the ring's current capacity limit.
func (b *Buffer[T]) Limit() int { return b.ring.Cap() }

// Resize sets a new capacity limit; the buffer adjusts "without any
// loss of data". Growing a full ring pays any owed TRUE at once.
func (b *Buffer[T]) Resize(capacity int) {
	wasFull := b.ring.Full()
	b.ring.Resize(capacity)
	if b.owedTrue && wasFull && !b.ring.Full() {
		b.owedTrue = false
		b.ready.Set()
	}
	b.settle()
}

// Report returns the buffer's status report.
func (b *Buffer[T]) Report() Report {
	return Report{
		Name:   b.name,
		Length: b.ring.Len(),
		Limit:  b.ring.Cap(),
		Pushed: b.ring.Pushed(),
		Popped: b.ring.Popped(),
	}
}

// Sender is the upstream side of the ready protocol: "After a FALSE
// reply, the input process will not send any more data... but will
// listen on the ready channel in addition to its other inputs."
type Sender[T any] struct {
	buf     *Buffer[T]
	canSend bool
	refused *obs.Counter
	trace   *obs.Tracer
}

// NewSender returns a ready-protocol client for buf, which must have
// been created WithReady. Senders of the same buffer share one
// refusal counter (decouple_refused_total{buffer=...}).
func NewSender[T any](buf *Buffer[T]) *Sender[T] {
	if buf.ready == nil {
		panic("decouple: NewSender on buffer without ready protocol")
	}
	return &Sender[T]{
		buf:     buf,
		canSend: true,
		refused: buf.reg.Counter("decouple_refused_total", obs.L("buffer", buf.name)),
		trace:   buf.reg.Tracer(),
	}
}

// CanSend reports whether the last reply permitted more data.
func (s *Sender[T]) CanSend() bool { return s.canSend }

// Dropped returns how many items Deliver refused.
func (s *Sender[T]) Dropped() uint64 { return s.refused.Value() }

// Deliver queues v if the buffer last said READY and records the
// immediate reply; otherwise it counts a drop and returns false — the
// upstream "can then choose to throw away the data rather than block
// waiting for the buffer to become free".
func (s *Sender[T]) Deliver(p *occam.Proc, v T) bool {
	if !s.canSend {
		s.refused.Inc()
		s.trace.Emit(obs.EvDrop, "decouple."+s.buf.name, 0, "ready-refusal")
		return false
	}
	s.canSend = s.buf.put(p, v)
	return true
}

// ReadyGuard returns a guard, for the upstream process's alternation,
// that is ready once the TRUE owed after a FALSE reply has been raised.
// After it fires, call Update. The guard is the same value on every
// call, so it may be kept in a hoisted guard slice.
func (s *Sender[T]) ReadyGuard() occam.Guard { return s.buf.ready }

// Update reads the TRUE reply the ready guard signalled.
func (s *Sender[T]) Update() {
	s.buf.ready.Clear()
	s.canSend = true
}
