package occam

// Chan is an Occam rendezvous channel carrying values of type T.
// Send blocks until a receiver takes the value; Recv blocks until a
// sender offers one. Channels are unbuffered: communication is the
// synchronisation, exactly as on the transputer.
//
// Unlike Occam, any number of processes may wait to send or receive on
// the same channel; waiters are served in FIFO order. This is used by
// Pandora-style fan-in (many producers into a switch input).
//
// Waiter and alternation-registration records are recycled on
// per-channel free lists: the runtime serialises all user code under
// one lock, so the lists need no further synchronisation, and a data
// channel at steady state allocates nothing per transfer.
type Chan[T any] struct {
	rt    *Runtime
	name  string
	sendq []*sendWaiter[T]
	recvq []*recvWaiter[T]
	alts  []*altReg[T]

	sendFree []*sendWaiter[T]
	recvFree []*recvWaiter[T]
	regFree  []*altReg[T]
}

// sendWaiter is one queued sender: a parked process (p), or a
// scheduler-context send (p nil) whose done runs when v is taken.
type sendWaiter[T any] struct {
	p    *Proc
	v    T
	done func(Sched)
}

type recvWaiter[T any] struct {
	p *Proc
	v T
}

type altReg[T any] struct {
	a   *altState
	idx int
	dst *T
}

// NewChan returns a new rendezvous channel on rt with a diagnostic
// name.
func NewChan[T any](rt *Runtime, name string) *Chan[T] {
	return &Chan[T]{rt: rt, name: name}
}

// Name returns the channel's diagnostic name.
func (c *Chan[T]) Name() string { return c.name }

// getSend / putSend recycle send waiters. Callers hold mu. A waiter is
// freed by whoever pops it from sendq (the popper reads v before the
// sender resumes, and the sender never touches the record again).
func (c *Chan[T]) getSend(p *Proc, v T, done func(Sched)) *sendWaiter[T] {
	if n := len(c.sendFree); n > 0 {
		w := c.sendFree[n-1]
		c.sendFree = c.sendFree[:n-1]
		w.p, w.v, w.done = p, v, done
		return w
	}
	return &sendWaiter[T]{p: p, v: v, done: done}
}

func (c *Chan[T]) putSend(w *sendWaiter[T]) {
	var zero T
	w.p, w.v, w.done = nil, zero, nil
	c.sendFree = append(c.sendFree, w)
}

// getRecv / putRecv recycle receive waiters. A receive waiter is freed
// by the receiver itself after it wakes and reads v (the sender wrote
// v before making the receiver ready).
func (c *Chan[T]) getRecv(p *Proc) *recvWaiter[T] {
	if n := len(c.recvFree); n > 0 {
		w := c.recvFree[n-1]
		c.recvFree = c.recvFree[:n-1]
		w.p = p
		return w
	}
	return &recvWaiter[T]{p: p}
}

func (c *Chan[T]) putRecv(w *recvWaiter[T]) {
	var zero T
	w.p, w.v = nil, zero
	c.recvFree = append(c.recvFree, w)
}

// getReg / putReg recycle alternation registrations. A registration is
// freed either when a sender pops it (takeAlt) or when the owning Alt
// disables its guards (removeAlt); the two are mutually exclusive for
// any one record because takeAlt removes it from alts.
func (c *Chan[T]) getReg(a *altState, idx int, dst *T) *altReg[T] {
	if n := len(c.regFree); n > 0 {
		r := c.regFree[n-1]
		c.regFree = c.regFree[:n-1]
		r.a, r.idx, r.dst = a, idx, dst
		return r
	}
	return &altReg[T]{a: a, idx: idx, dst: dst}
}

func (c *Chan[T]) putReg(r *altReg[T]) {
	r.a, r.dst = nil, nil
	c.regFree = append(c.regFree, r)
}

// takeSend removes the first queued sender and returns its value,
// completing the send: a parked process is made ready, a
// scheduler-context send runs its done. Caller holds mu.
func (c *Chan[T]) takeSend() T {
	w := c.sendq[0]
	copy(c.sendq, c.sendq[1:])
	c.sendq[len(c.sendq)-1] = nil
	c.sendq = c.sendq[:len(c.sendq)-1]
	v, p, done := w.v, w.p, w.done
	c.putSend(w)
	if p != nil {
		c.rt.ready(p)
	} else {
		done(Sched{c.rt})
	}
	return v
}

// handOff gives v to the first waiting receiver — a process in Recv,
// else an alternation holding a Recv guard — and reports whether there
// was one. Caller holds mu.
func (c *Chan[T]) handOff(v T) bool {
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		copy(c.recvq, c.recvq[1:])
		c.recvq[len(c.recvq)-1] = nil
		c.recvq = c.recvq[:len(c.recvq)-1]
		w.v = v
		c.rt.ready(w.p)
		return true
	}
	if a, idx, dst := c.takeAlt(); a != nil {
		*dst = v
		a.chosen = idx
		c.rt.ready(a.p)
		return true
	}
	return false
}

// Send offers v on the channel, blocking until a receiver (direct or
// via Alt) takes it.
func (c *Chan[T]) Send(p *Proc, v T) {
	rt := c.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if c.handOff(v) {
		return
	}
	c.sendq = append(c.sendq, c.getSend(p, v, nil))
	rt.park(p, stSend, c.name)
}

// SendSched is Send for scheduler context: it offers v and returns at
// once, and done runs — in scheduler context, exactly once — when a
// receiver (direct or via Alt) takes the value. done is where the
// caller continues, as a process continues after Send returns. If a
// receiver is already waiting, done runs before SendSched returns;
// otherwise v queues behind earlier senders, process or not, and done
// runs inside the Recv or Alt that takes it. A send still queued at
// Shutdown is dropped with its done never run.
func (c *Chan[T]) SendSched(s Sched, v T, done func(Sched)) {
	if c.handOff(v) {
		done(s)
		return
	}
	c.sendq = append(c.sendq, c.getSend(nil, v, done))
}

// takeAlt removes the first live (unfired) alternation registration,
// marking it fired, and returns its state, guard index and destination.
// Dead registrations encountered on the way are recycled. Caller holds
// mu.
func (c *Chan[T]) takeAlt() (a *altState, idx int, dst *T) {
	for len(c.alts) > 0 {
		reg := c.alts[0]
		copy(c.alts, c.alts[1:])
		c.alts[len(c.alts)-1] = nil
		c.alts = c.alts[:len(c.alts)-1]
		a, idx, dst = reg.a, reg.idx, reg.dst
		fired := a.fired
		c.putReg(reg)
		if !fired {
			a.fired = true
			return a, idx, dst
		}
	}
	return nil, 0, nil
}

// Recv receives a value from the channel, blocking until a sender
// offers one.
func (c *Chan[T]) Recv(p *Proc) T {
	rt := c.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(c.sendq) > 0 {
		return c.takeSend()
	}
	w := c.getRecv(p)
	c.recvq = append(c.recvq, w)
	rt.park(p, stRecv, c.name)
	v := w.v
	c.putRecv(w)
	return v
}

// TrySend offers v without blocking; it reports whether a waiting
// receiver took the value. (Not an Occam primitive, but the natural
// dual of a SKIP-guarded alternation; used where the paper's processes
// "do not send a segment if the next process down the line is not
// ready", §2.2 principle 5.)
func (c *Chan[T]) TrySend(p *Proc, v T) bool {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	return c.handOff(v)
}

// removeAlt deletes every registration belonging to a, recycling the
// records. Caller holds mu.
func (c *Chan[T]) removeAlt(a *altState) {
	out := c.alts[:0]
	for _, reg := range c.alts {
		if reg.a != a {
			out = append(out, reg)
		} else {
			c.putReg(reg)
		}
	}
	for i := len(out); i < len(c.alts); i++ {
		c.alts[i] = nil
	}
	c.alts = out
}
