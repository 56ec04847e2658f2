package decouple

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
)

// refModel is the reference specification a Buffer is checked against:
// a plain slice for the ring, one offer slot outside it, and the ready
// protocol's reply bookkeeping. It has no processes and no events.
type refModel struct {
	ring   []int
	limit  int
	slot   int
	inSlot bool
	holdTo occam.Time // the slot's item is held back until then

	ready   bool // ready protocol in use
	canSend bool // the sender's last reply
	owed    bool // a FALSE was replied and its TRUE not yet raised
	raised  bool // a TRUE was raised and not yet read

	stall   func(now occam.Time) occam.Time
	outages map[occam.Time]bool // ends of the outages that held an item

	pushed, popped uint64
}

func (m *refModel) full() bool { return len(m.ring) >= m.limit }

func (m *refModel) offered(now occam.Time) bool { return m.inSlot && now >= m.holdTo }

// push queues v and returns the ready reply, judged before the slot
// refills.
func (m *refModel) push(now occam.Time, v int) bool {
	m.ring = append(m.ring, v)
	m.pushed++
	reply := !m.full()
	if !reply && m.ready {
		m.owed = true
	}
	m.refill(now)
	return reply
}

func (m *refModel) take(now occam.Time) int {
	v := m.slot
	m.inSlot = false
	m.refill(now)
	return v
}

func (m *refModel) refill(now occam.Time) {
	if m.inSlot || len(m.ring) == 0 {
		return
	}
	m.slot, m.ring = m.ring[0], m.ring[1:]
	m.popped++
	m.inSlot = true
	if m.owed && !m.full() {
		m.owed, m.raised = false, true
	}
	m.holdTo = 0
	if m.stall == nil {
		return
	}
	if until := m.stall(now); until > now {
		m.outages[until] = true
		m.holdTo = until
	}
}

func (m *refModel) resize(limit int) {
	wasFull := m.full()
	m.limit = limit
	if m.owed && wasFull && !m.full() {
		m.owed, m.raised = false, true
	}
}

// windowStall returns a stall hook over random outage windows in
// [0, horizon).
func windowStall(rng *rand.Rand, horizon time.Duration) func(now occam.Time) occam.Time {
	type window struct{ from, to occam.Time }
	var ws []window
	for i := 0; i < 12; i++ {
		from := occam.Time(rng.Int63n(int64(horizon)))
		ws = append(ws, window{from, from + occam.Time(time.Duration(1+rng.Intn(6))*time.Millisecond)})
	}
	return func(now occam.Time) occam.Time {
		for _, w := range ws {
			if now >= w.from && now < w.to {
				return w.to
			}
		}
		return 0
	}
}

// TestBufferMatchesModel drives Buffers through seeded random schedules
// of sends, takes, resizes, reads of the TRUE reply and clock advances
// (crossing stall windows), comparing them after every step with the
// reference model: occupancy, limit and counters, the offered and ready
// levels, the reply to every send, the stall count, and that a send
// blocks exactly when the ring is full.
func TestBufferMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		for _, ready := range []bool{false, true} {
			for _, stalled := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/ready=%v/stall=%v", seed, ready, stalled)
				t.Run(name, func(t *testing.T) { checkSchedule(t, seed, ready, stalled) })
			}
		}
	}
}

func checkSchedule(t *testing.T, seed int64, ready, stalled bool) {
	const steps = 300
	rng := rand.New(rand.NewSource(seed))
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	reg := obs.New(rt)
	m := &refModel{limit: 1 + rng.Intn(4), ready: ready, canSend: true, outages: map[occam.Time]bool{}}
	opts := []Option{WithObs(reg)}
	if ready {
		opts = append(opts, WithReady())
	}
	if stalled {
		m.stall = windowStall(rng, steps*time.Millisecond)
		opts = append(opts, WithStall(m.stall))
	}
	b := New[int](rt, "prop", m.limit, opts...)
	var s *Sender[int]
	if ready {
		s = NewSender(b)
	}
	var failure string
	fail := func(step int, format string, args ...any) {
		if failure == "" {
			failure = fmt.Sprintf("step %d: ", step) + fmt.Sprintf(format, args...)
		}
	}
	guardUp := func(p *occam.Proc, g occam.Guard) bool { return p.Alt(g, occam.Skip()) == 0 }
	check := func(p *occam.Proc, step int) {
		now := p.Now()
		rep := b.Report()
		if b.Len() != len(m.ring) || b.Limit() != m.limit || rep.Pushed != m.pushed || rep.Popped != m.popped {
			fail(step, "buffer %+v, model ring %v limit %d pushed %d popped %d",
				rep, m.ring, m.limit, m.pushed, m.popped)
		}
		if got := guardUp(p, b.Offered()); got != m.offered(now) {
			fail(step, "offered guard %v at %v, model %v", got, now, m.offered(now))
		}
		if ready {
			if got := guardUp(p, s.ReadyGuard()); got != m.raised {
				fail(step, "ready guard %v, model raised %v", got, m.raised)
			}
			if s.CanSend() != m.canSend {
				fail(step, "CanSend %v, model %v", s.CanSend(), m.canSend)
			}
		}
		if stalled {
			if v, _ := reg.Value("decouple_stalled_total", obs.L("buffer", "prop")); int(v) != len(m.outages) {
				fail(step, "stalled_total %v, model %d outages", v, len(m.outages))
			}
		}
	}
	send := func(p *occam.Proc, v int) bool {
		if ready {
			return s.Deliver(p, v)
		}
		b.Put(p, v)
		return true
	}
	// take empties the offer slot, sleeping out a hold if there is one.
	take := func(p *occam.Proc, step int) {
		if !m.offered(p.Now()) {
			p.SleepUntil(m.holdTo)
		}
		if v, want := b.Take(p), m.take(p.Now()); v != want {
			fail(step, "took %d, model %d", v, want)
		}
	}

	rt.Go("driver", nil, occam.Low, func(p *occam.Proc) {
		next := 0
		for step := 0; step < steps && failure == ""; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // send
				v := next
				next++
				switch {
				case ready && !m.canSend:
					if s.Deliver(p, v) {
						fail(step, "Deliver accepted after a FALSE reply")
					}
				case !m.full():
					if !send(p, v) {
						fail(step, "Deliver refused after a TRUE reply")
					}
					reply := m.push(p.Now(), v)
					if ready {
						if s.CanSend() != reply {
							fail(step, "reply %v, model %v", s.CanSend(), reply)
						}
						m.canSend = reply
					}
				default:
					// The ring is full: the send must block until a
					// take frees a ring slot.
					done := false
					rt.Go("blocked-send", nil, occam.Low, func(q *occam.Proc) {
						send(q, v)
						done = true
					})
					p.Yield()
					if done {
						fail(step, "send returned with the ring full (%d/%d)", len(m.ring), m.limit)
						return
					}
					for m.full() {
						take(p, step)
					}
					p.Yield()
					if !done {
						fail(step, "send still blocked with the ring at %d/%d", len(m.ring), m.limit)
						return
					}
					reply := m.push(p.Now(), v)
					if ready {
						if s.CanSend() != reply {
							fail(step, "blocked send replied %v, model %v", s.CanSend(), reply)
						}
						m.canSend = reply
					}
				}
			case op < 7: // take
				if m.offered(p.Now()) {
					if rng.Intn(2) == 0 {
						take(p, step)
					} else if v, ok := b.TryTake(p); !ok || v != m.take(p.Now()) {
						fail(step, "TryTake = %d, %v with an item offered", v, ok)
					}
				} else if _, ok := b.TryTake(p); ok {
					fail(step, "TryTake succeeded with nothing offered")
				}
			case op < 8: // resize
				limit := 1 + rng.Intn(6)
				m.resize(limit)
				b.Resize(limit)
			case op < 9: // advance the clock
				p.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
			default: // read a raised TRUE
				if ready && m.raised {
					s.Update()
					m.raised, m.canSend = false, true
				}
			}
			check(p, step)
		}
	})
	if err := rt.RunUntil(occam.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if failure != "" {
		t.Fatal(failure)
	}
}
