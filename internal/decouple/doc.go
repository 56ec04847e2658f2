// Package decouple implements the decoupling buffers of paper §3.7.1:
// circular FIFO queues of segment references inserted between
// processes or hardware units that do not run synchronously, so that
// "the poor performance of one output device does not affect streams
// to other output devices" (principle 5).
//
// A Buffer is a passive ring: a Ring of queued items plus a one-item
// offer slot holding the item the consumer takes next. It has no
// process of its own; the producer (Put, or Sender.Deliver) and the
// consumer (Take, TryTake, or an Alt over Offered) drive it from their
// own process contexts, and occam.Events wake whichever side is
// blocked. Resize changes the limit "without any loss of data" and
// Report returns the buffer's length, limit and pointer positions.
//
// With the ready protocol (WithReady, figure 3.6) every input gets an
// immediate TRUE ("more free slots") or FALSE ("full — do not send")
// reply, judged before the offer slot refills; after a FALSE the
// owed TRUE is raised the moment a ring slot frees, on a guard the
// producer keeps in its alternation. Sender is the client side of
// that protocol, counting refusals on decouple_refused_total{buffer=...}.
//
// Observability (WithObs) registers the live ring occupancy and limit
// as decouple_queued/decouple_limit gauges and the lifetime activity
// as decouple_pushed_total/decouple_popped_total counters — the depth
// signals the overload controller in internal/degrade watches.
// Fault injection (WithStall) simulates a stuck sink channel: an item
// entering the offer slot during an outage is held there until the
// outage ends while the ring fills, counted on decouple_stalled_total.
package decouple
