package occam

// altState is the shared state of one alternation: the first guard to
// fire claims it and wakes the process. Each Proc owns one altState,
// reused across Alt calls — a process runs at most one alternation at
// a time and every registration is removed before Alt returns.
type altState struct {
	p      *Proc
	fired  bool
	chosen int
}

// Guard is one alternative of a PRI ALT. Construct guards with Recv
// and Skip; an *Event is a guard too.
type Guard interface {
	// poll attempts to fire the guard immediately (mu held).
	poll(p *Proc) bool
	// enable registers the guard to fire later (mu held).
	enable(a *altState, idx int)
	// disable removes the registration after the alt completes
	// (mu held).
	disable()
}

// Alt performs a prioritised alternation (Occam PRI ALT) over the
// guards and returns the index of the one that fired. Guards are
// polled in order, so earlier guards win when several are ready — the
// property Pandora relies on to keep command channels ahead of data
// channels (principle 4). With no ready guard the process blocks until
// one fires.
//
// Guards are reusable: a hot loop may build its guard slice once and
// pass the same slice (and guard values) to every Alt.
func (p *Proc) Alt(guards ...Guard) int {
	if len(guards) == 0 {
		panic("occam: Alt with no guards")
	}
	rt := p.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, g := range guards {
		if g.poll(p) {
			return i
		}
	}
	a := &p.alt
	a.p, a.fired, a.chosen = p, false, -1
	for i, g := range guards {
		g.enable(a, i)
	}
	p.stN = len(guards)
	rt.park(p, stAlt, "")
	for _, g := range guards {
		g.disable()
	}
	if a.chosen < 0 {
		panic("occam: alt woke without a fired guard")
	}
	return a.chosen
}

// recvGuard fires when ch has a sender; the value lands in *dst.
type recvGuard[T any] struct {
	ch  *Chan[T]
	dst *T
	a   *altState
}

// Recv returns a guard that fires when a value can be received from
// ch, storing it in *dst.
func Recv[T any](ch *Chan[T], dst *T) Guard {
	return &recvGuard[T]{ch: ch, dst: dst}
}

func (g *recvGuard[T]) poll(p *Proc) bool {
	c := g.ch
	if len(c.sendq) == 0 {
		return false
	}
	w := c.popSend()
	*g.dst = w.v
	c.rt.ready(w.p)
	c.putSend(w)
	return true
}

func (g *recvGuard[T]) enable(a *altState, idx int) {
	g.a = a
	g.ch.alts = append(g.ch.alts, g.ch.getReg(a, idx, g.dst))
}

func (g *recvGuard[T]) disable() {
	if g.a != nil {
		g.ch.removeAlt(g.a)
		g.a = nil
	}
}

// skipGuard always fires (Occam SKIP): as the last guard it makes the
// alternation non-blocking.
type skipGuard struct{}

// Skip returns a guard that is always ready. Place it last to poll the
// other guards without blocking.
func Skip() Guard { return skipGuard{} }

func (skipGuard) poll(*Proc) bool { return true }
func (skipGuard) enable(a *altState, i int) {
	// A reachable enabled SKIP fires at once; Alt polls guards first,
	// so enable is only reached if an earlier guard also fired — which
	// cannot happen. Guard against misuse anyway.
	panic("occam: Skip guard enabled; place Skip last")
}
func (skipGuard) disable() {}
