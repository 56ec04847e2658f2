package decouple

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
)

func TestProcessPassesDataThrough(t *testing.T) {
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 4)
	var got []int
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 10; i++ {
			d.Put(p, i)
		}
	})
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, d.Take(p))
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if len(got) != 10 {
		t.Fatalf("consumer got %d items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestProcessDecouplesBurst(t *testing.T) {
	// The producer can race ahead of a slow consumer by the buffer
	// depth without blocking — the whole point of decoupling.
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 8)
	var producerDone occam.Time
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 8; i++ {
			d.Put(p, i)
		}
		producerDone = p.Now()
	})
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 8; i++ {
			p.Sleep(10 * time.Millisecond)
			d.Take(p)
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if producerDone > occam.Time(time.Millisecond) {
		t.Fatalf("producer blocked until %v despite free buffer space", producerDone)
	}
}

func TestProcessBlocksProducerWhenFull(t *testing.T) {
	// Without a ready channel, a full buffer blocks its producer
	// "until an item has been read from the buffer".
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 2)
	var sent int
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 10; i++ {
			d.Put(p, i)
			sent++
		}
	})
	if err := rt.RunUntil(occam.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Ring capacity (2) + the one item in the offer slot: the producer
	// blocks on its fourth item.
	if sent != 3 {
		t.Fatalf("producer sent %d items with no consumer, want 3", sent)
	}
	rt.Shutdown()
}

func TestReadyProtocolImmediateReply(t *testing.T) {
	// Figure 3.6: every input gets an immediate TRUE/FALSE; after a
	// FALSE the producer stops sending and later gets a TRUE.
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 2, WithReady())
	var replies []bool
	var falseAt, trueAgainAt occam.Time
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		s := NewSender(d)
		for i := 0; ; i++ {
			if !s.CanSend() {
				falseAt = p.Now()
				break
			}
			s.Deliver(p, i)
			replies = append(replies, s.CanSend())
		}
		// Now wait for the TRUE.
		if p.Alt(s.ReadyGuard()) != 0 {
			t.Error("unexpected guard")
		}
		s.Update()
		trueAgainAt = p.Now()
		if !s.CanSend() {
			t.Error("ready reply was not TRUE")
		}
	})
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(50 * time.Millisecond)
		d.Take(p)
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	// Capacity 2 ring: the first item moves straight into the offer
	// slot, so we see TRUEs until the ring is truly full with the slot
	// holding an item: 3 accepted items, last reply FALSE.
	if len(replies) != 3 || !replies[0] || !replies[1] || replies[2] {
		t.Fatalf("replies %v, want [true true false]", replies)
	}
	if falseAt != 0 {
		t.Fatalf("producer blocked until %v before FALSE", falseAt)
	}
	// The TRUE arrives when the consumer frees a slot at 50ms.
	if trueAgainAt != occam.Time(50*time.Millisecond) {
		t.Fatalf("TRUE at %v, want 50ms", trueAgainAt)
	}
}

func TestReadySenderDropsInsteadOfBlocking(t *testing.T) {
	// Principle 5: with the buffer full, Deliver refuses immediately.
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 1, WithReady())
	var delivered, dropped int
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		s := NewSender(d)
		for i := 0; i < 20; i++ {
			if s.Deliver(p, i) {
				delivered++
			} else {
				dropped++
			}
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if dropped == 0 {
		t.Fatal("nothing dropped with no consumer")
	}
	if delivered+dropped != 20 {
		t.Fatalf("delivered=%d dropped=%d", delivered, dropped)
	}
	if delivered > 3 {
		t.Fatalf("delivered %d into capacity-1 buffer with no consumer", delivered)
	}
}

func TestReadyOutputFlowsWhileTrueUnread(t *testing.T) {
	// A TRUE reply the producer has not read yet must not hold up the
	// consumer side: raising it waits for nobody, and the buffer keeps
	// offering what it queued.
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 2, WithReady())
	var got []int
	var s *Sender[int]
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		s = NewSender(d)
		for i := 0; s.CanSend(); i++ {
			s.Deliver(p, i)
		}
		// Never listens for the TRUE.
	})
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ {
			got = append(got, d.Take(p))
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("consumer got %v with a TRUE unread, want [0 1 2]", got)
	}
	if s.CanSend() {
		t.Fatal("sender took the TRUE without reading it")
	}
}

func TestResizeCommandWithoutLoss(t *testing.T) {
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 8)
	var got []int
	rt.Go("driver", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 6; i++ {
			d.Put(p, i)
		}
		d.Resize(2) // shrink below occupancy
		for i := 0; i < 6; i++ {
			got = append(got, d.Take(p))
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if len(got) != 6 {
		t.Fatalf("got %d items after shrink, want all 6", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("data reordered: %v", got)
		}
	}
}

func TestReportCommand(t *testing.T) {
	rt := occam.NewRuntime()
	d := New[int](rt, "audio-buf", 4)
	var rep Report
	rt.Go("driver", nil, occam.Low, func(p *occam.Proc) {
		d.Put(p, 1)
		d.Put(p, 2)
		d.Put(p, 3)
		rep = d.Report()
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if rep.Name != "audio-buf" {
		t.Fatalf("report name %q", rep.Name)
	}
	if rep.Limit != 4 {
		t.Fatalf("report limit %d", rep.Limit)
	}
	// 3 pushed; the offer slot holds one, so length is 2 and popped 1.
	if rep.Pushed != 3 || rep.Length+int(rep.Popped) != 3 {
		t.Fatalf("report %+v inconsistent", rep)
	}
	if rep.Length != 2 || rep.Popped != 1 {
		t.Fatalf("report %+v, want length 2, popped 1", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestCommandPriorityOverData(t *testing.T) {
	// Principle 4: a command is handled "as soon as the process has
	// finished dealing with any current segment" even under a data
	// flood; a buffer method runs at once, in the commander.
	rt := occam.NewRuntime()
	node := occam.NewNode(rt, "cpu")
	d := New[int](rt, "buf", 4)
	var cmdServed occam.Time
	rt.Go("flood", node, occam.Low, func(p *occam.Proc) {
		for i := 0; ; i++ {
			p.Consume(10 * time.Microsecond)
			d.Put(p, i)
		}
	})
	rt.Go("drain", node, occam.Low, func(p *occam.Proc) {
		for {
			d.Take(p)
			p.Consume(10 * time.Microsecond)
		}
	})
	rt.Go("commander", nil, occam.Low, func(p *occam.Proc) {
		p.Sleep(time.Millisecond)
		d.Report()
		cmdServed = p.Now()
	})
	if err := rt.RunUntil(occam.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if cmdServed == 0 || cmdServed > occam.Time(2*time.Millisecond) {
		t.Fatalf("command served at %v under data flood", cmdServed)
	}
}

func TestSenderPanicsWithoutReady(t *testing.T) {
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("NewSender accepted buffer without ready channel")
		}
	}()
	NewSender(d)
}

func TestPutPanicsWithReady(t *testing.T) {
	rt := occam.NewRuntime()
	d := New[int](rt, "buf", 2, WithReady())
	var recovered any
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		defer func() { recovered = recover() }()
		d.Put(p, 1)
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if recovered == nil {
		t.Fatal("Put bypassed the ready protocol")
	}
}

func TestStallHoldsOfferedItem(t *testing.T) {
	// WithStall: an item entering the offer slot during an outage is
	// held until the outage ends; the outage counts once however many
	// items queue behind it.
	rt := occam.NewRuntime()
	reg := obs.New(rt)
	stall := func(now occam.Time) occam.Time {
		if now >= occam.Time(10*time.Millisecond) && now < occam.Time(30*time.Millisecond) {
			return occam.Time(30 * time.Millisecond)
		}
		return 0
	}
	d := New[int](rt, "buf", 4, WithObs(reg), WithStall(stall))
	var at []occam.Time
	rt.Go("producer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 4; i++ {
			p.SleepUntil(occam.Time(time.Duration(5+5*i) * time.Millisecond))
			d.Put(p, i)
		}
	})
	rt.Go("consumer", nil, occam.Low, func(p *occam.Proc) {
		for i := 0; i < 4; i++ {
			d.Take(p)
			at = append(at, p.Now())
		}
	})
	if err := rt.RunUntil(occam.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	ms := occam.Time(time.Millisecond)
	want := []occam.Time{5 * ms, 30 * ms, 30 * ms, 30 * ms}
	if len(at) != len(want) {
		t.Fatalf("consumer took at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("consumer took at %v, want %v", at, want)
		}
	}
	if v, _ := reg.Value("decouple_stalled_total", obs.L("buffer", "buf")); v != 1 {
		t.Fatalf("decouple_stalled_total = %v, want 1", v)
	}
}
