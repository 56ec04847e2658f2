package occam

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestEventWaitBlocksUntilSet(t *testing.T) {
	rt := NewRuntime()
	ev := NewEvent(rt, "ev")
	var woke Time
	rt.Go("waiter", nil, Low, func(p *Proc) {
		ev.Wait(p)
		woke = p.Now()
	})
	rt.Go("setter", nil, Low, func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		ev.Set()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*time.Millisecond) {
		t.Fatalf("waiter woke at %v, want 5ms", woke)
	}
	if !ev.IsSet() {
		t.Fatal("waking the waiter lowered the level")
	}
}

func TestEventLevelHoldsUntilCleared(t *testing.T) {
	rt := NewRuntime()
	ev := NewEvent(rt, "ev")
	var blockedAt Time
	rt.Go("waiter", nil, Low, func(p *Proc) {
		ev.Set()
		for i := 0; i < 3; i++ {
			ev.Wait(p) // level high: returns at once, every time
		}
		if p.Now() != 0 {
			t.Errorf("Wait on a high level blocked until %v", p.Now())
		}
		ev.Clear()
		ev.Wait(p)
		blockedAt = p.Now()
	})
	rt.Go("setter", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		ev.Set()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if blockedAt != Time(time.Millisecond) {
		t.Fatalf("Wait after Clear returned at %v, want 1ms", blockedAt)
	}
}

func TestEventGuardSetFromTimer(t *testing.T) {
	// An Event in an Alt fires when a Timer callback raises it from
	// scheduler context, and polls ready while its level stays high.
	rt := NewRuntime()
	ev := NewEvent(rt, "ev")
	ch := NewChan[int](rt, "ch")
	tm := NewTimer(rt, func(s Sched) { s.Set(ev) })
	var v int
	var fired []int
	var at Time
	rt.Go("alt", nil, Low, func(p *Proc) {
		tm.Schedule(Time(3 * time.Millisecond))
		guards := []Guard{Recv(ch, &v), ev}
		fired = append(fired, p.Alt(guards...))
		at = p.Now()
		fired = append(fired, p.Alt(guards...)) // still high
		ev.Clear()
		fired = append(fired, p.Alt(ev, Skip()))
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(3*time.Millisecond) {
		t.Fatalf("event guard fired at %v, want 3ms", at)
	}
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 1 || fired[2] != 1 {
		t.Fatalf("fired guards %v, want [1 1 1]", fired)
	}
}

func TestEventSingleWaiter(t *testing.T) {
	rt := NewRuntime()
	ev := NewEvent(rt, "ev")
	var recovered any
	rt.Go("first", nil, Low, func(p *Proc) { ev.Wait(p) })
	rt.Go("second", nil, Low, func(p *Proc) {
		defer func() {
			recovered = recover()
			ev.Set() // release the first waiter
		}()
		ev.Wait(p)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("a second process waited on the event")
	}
}

func TestEventDeadlockDump(t *testing.T) {
	rt := NewRuntime()
	ev := NewEvent(rt, "buf.offered")
	rt.Go("consumer", nil, Low, func(p *Proc) { ev.Wait(p) })
	err := rt.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	if len(de.Procs) != 1 || !strings.Contains(de.Procs[0], "wait buf.offered") {
		t.Fatalf("deadlock dump %q does not name the event", de.Procs)
	}
	rt.Shutdown()
}
