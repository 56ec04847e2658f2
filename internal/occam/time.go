// Package occam is a deterministic, virtual-time simulation of the
// Inmos transputer / Occam 2 execution environment that the Pandora
// system was built on (paper §3.1).
//
// Processes are goroutines scheduled one at a time by a virtual-time
// scheduler, so every run is exactly reproducible and experiments that
// span minutes of stream time complete in milliseconds of wall time.
// The primitives mirror Occam:
//
//   - rendezvous channels (Chan) with blocking Send/Recv,
//   - prioritised alternation (Proc.Alt, the PRI ALT construct),
//   - microsecond-resolution timers (Proc.Sleep, Timer),
//   - two process priorities (High preempts Low in the run queue),
//   - per-transputer CPU accounting (Node, Proc.Consume),
//   - inter-transputer links with transmission delay (Link).
//
// A Runtime detects deadlock (no runnable process and no pending
// timer) and reports the blocked processes by name and state.
package occam

import (
	"fmt"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the box was
// booted. The transputer timer had a resolution of one microsecond;
// nanoseconds are used internally so that derived quantities (link
// transmission times, CPU costs) do not accumulate rounding error.
type Time int64

// Handy instants/durations.
const (
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second

	// Forever is a time later than any event in a simulation.
	Forever Time = 1<<63 - 1
)

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Micros returns t in whole microseconds (the transputer timer value).
func (t Time) Micros() int64 { return int64(t) / 1e3 }

// Millis returns t in (possibly fractional) milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

// Seconds returns t in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return fmt.Sprintf("t+%s", time.Duration(t))
}
