package occam

import (
	"errors"
	"runtime"
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

// sendAt arms a Timer that offers v on ch from scheduler context at t;
// done records when the send completed (-1 until it does).
func sendAt[T any](rt *Runtime, ch *Chan[T], t Time, v T, done *Time) {
	*done = -1
	tm := NewTimer(rt, func(s Sched) {
		ch.SendSched(s, v, func(s Sched) { *done = s.Now() })
	})
	tm.Schedule(t)
}

func TestSendSchedWaitingReceiver(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var got int
	var recvAt, done Time
	rt.Go("recv", nil, Low, func(p *Proc) {
		got = ch.Recv(p)
		recvAt = p.Now()
	})
	sendAt(rt, ch, Time(2*time.Millisecond), 7, &done)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 || recvAt != Time(2*time.Millisecond) || done != recvAt {
		t.Fatalf("got %d at %v, send done at %v; want 7, both at 2ms", got, recvAt, done)
	}
}

func TestSendSchedCompletesWhenTaken(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var got int
	var done Time
	rt.Go("recv", nil, Low, func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		got = ch.Recv(p)
	})
	sendAt(rt, ch, Time(time.Millisecond), 3, &done)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 3 || done != Time(5*time.Millisecond) {
		t.Fatalf("got %d, send done at %v; want 3 at 5ms", got, done)
	}
}

func TestSendSchedAltGuard(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sendAt Time // before the Alt polls (queued) or after (enabled)
	}{
		{"polled", Time(time.Millisecond)},
		{"enabled", Time(4 * time.Millisecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewRuntime()
			other := NewChan[int](rt, "other")
			ch := NewChan[int](rt, "c")
			var got, idx int
			var altAt, done Time
			rt.Go("alter", nil, Low, func(p *Proc) {
				p.Sleep(2 * time.Millisecond)
				idx = p.Alt(Recv(other, &got), Recv(ch, &got))
				altAt = p.Now()
			})
			sendAt(rt, ch, tc.sendAt, 11, &done)
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			want := max(tc.sendAt, Time(2*time.Millisecond))
			if idx != 1 || got != 11 || altAt != want || done != want {
				t.Fatalf("alt chose %d got %d at %v, send done at %v; want 1, 11, both at %v",
					idx, got, altAt, done, want)
			}
		})
	}
}

// A completion may send again: a callback chain hands a train of
// values over one at a time, FIFO with process senders on the same
// channel.
func TestSendSchedChainInterleavesFIFO(t *testing.T) {
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	train := []int{1, 2, 3}
	next := 0
	var chainDone Time = -1
	var step func(s Sched)
	step = func(s Sched) {
		if next == len(train) {
			chainDone = s.Now()
			return
		}
		next++
		ch.SendSched(s, train[next-1], step)
	}
	NewTimer(rt, step).Schedule(Time(time.Millisecond))
	rt.Go("sender", nil, Low, func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Send(p, 100)
	})
	var got []int
	rt.Go("recv", nil, Low, func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		for i := 0; i < 4; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// The chain's first value queued at 1ms before the process sender
	// parked; each later link queues when its predecessor is taken.
	want := []int{1, 100, 2, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("received %v, want %v", got, want)
		}
	}
	if chainDone != Time(3*time.Millisecond) {
		t.Fatalf("chain finished at %v, want 3ms", chainDone)
	}
}

// A scheduler-context send still queued at Shutdown holds no process:
// nothing is left running and its completion never runs.
func TestSendSchedPendingAtShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := NewRuntime()
	ch := NewChan[int](rt, "c")
	var done Time
	sendAt(rt, ch, 0, 1, &done)
	rt.Go("busy", nil, Low, func(p *Proc) { p.Sleep(time.Hour) })
	if err := rt.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if n := rt.NumProcs(); n != 1 {
		t.Fatalf("%d live processes with a send pending, want 1", n)
	}
	rt.Shutdown()
	if done != -1 {
		t.Fatalf("completion ran at %v with no receiver", done)
	}
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines left after Shutdown", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}
