package occam

import (
	"testing"
	"time"
)

func TestAltPicksReadyGuard(t *testing.T) {
	rt := NewRuntime()
	a := NewChan[int](rt, "a")
	b := NewChan[int](rt, "b")
	var idx, got int
	rt.Go("sender", nil, Low, func(p *Proc) { b.Send(p, 7) })
	rt.Go("alter", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond) // let the sender queue on b
		var va, vb int
		idx = p.Alt(Recv(a, &va), Recv(b, &vb))
		got = vb
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 || got != 7 {
		t.Fatalf("idx=%d got=%d, want guard 1 value 7", idx, got)
	}
}

func TestAltPriorityOrder(t *testing.T) {
	// PRI ALT: with both guards ready, the first one listed wins.
	// This is principle 4's mechanism: command channels listed first.
	rt := NewRuntime()
	cmd := NewChan[int](rt, "cmd")
	data := NewChan[int](rt, "data")
	var idx int
	rt.Go("cmdSender", nil, Low, func(p *Proc) { cmd.Send(p, 1) })
	rt.Go("dataSender", nil, Low, func(p *Proc) { data.Send(p, 2) })
	rt.Go("alter", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond) // both senders now queued
		var vc, vd int
		idx = p.Alt(Recv(cmd, &vc), Recv(data, &vd))
	})
	if err := rt.RunUntil(Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("alt chose guard %d, want the command guard (0)", idx)
	}
	rt.Shutdown()
}

func TestAltBlocksUntilGuardFires(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var fireAt Time
	rt.Go("alter", nil, Low, func(p *Proc) {
		var v int
		p.Alt(Recv(ch, &v))
		fireAt = p.Now()
	})
	rt.Go("sender", nil, Low, func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		ch.Send(p, 1)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if fireAt != Time(4*time.Millisecond) {
		t.Fatalf("alt fired at %v, want 4ms", fireAt)
	}
}

func TestAltSkipMakesNonBlocking(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "quiet")
	var idx int
	rt.Go("alter", nil, Low, func(p *Proc) {
		var v int
		idx = p.Alt(Recv(ch, &v), Skip())
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("idx=%d, want Skip (1)", idx)
	}
	if rt.Now() != 0 {
		t.Fatalf("non-blocking alt advanced the clock to %v", rt.Now())
	}
}

func TestAltSkipPrefersReadyChannel(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var idx, got int
	rt.Go("sender", nil, Low, func(p *Proc) { ch.Send(p, 5) })
	rt.Go("alter", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		var v int
		idx = p.Alt(Recv(ch, &v), Skip())
		got = v
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 0 || got != 5 {
		t.Fatalf("idx=%d got=%d, want channel guard", idx, got)
	}
}

func TestAltRepeatedOnSameChannel(t *testing.T) {
	// A server looping on Alt over the same channels must receive
	// every message exactly once.
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var got []int
	rt.Go("server", nil, Low, func(p *Proc) {
		for i := 0; i < 10; i++ {
			var v int
			p.Alt(Recv(ch, &v))
			got = append(got, v)
		}
	})
	rt.Go("client", nil, Low, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
			ch.Send(p, i)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("received %d values, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestTwoAltsOneSender(t *testing.T) {
	// Two processes alting on the same channel: one sender satisfies
	// exactly one of them.
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	other := NewChan[int](rt, "other")
	served := 0
	for i := 0; i < 2; i++ {
		rt.Go("alter", nil, Low, func(p *Proc) {
			var v int
			if p.Alt(Recv(ch, &v), Recv(other, &v)) == 0 {
				served++
			}
			// Release the second alter via `other`.
			other.TrySend(p, 0)
		})
	}
	rt.Go("sender", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Send(p, 1)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 1 {
		t.Fatalf("one send served %d alts", served)
	}
}
