// Package allocator implements the server transputer's segment buffer
// allocator of paper §3.4 (figure 3.4): a shared pool of segment
// buffers whose reference counts track how many processes hold each
// buffer. Input handlers obtain empty buffers in advance, fill them,
// and pass buffer *indices* through the rest of the system — data is
// copied "once into memory, and once out for each output device".
//
// The allocator is an Occam process. Its defining behaviour, straight
// from the paper: "If there are no buffers available, then the
// allocator will not listen for any requests, and the requesting
// processes will be descheduled by the usual channel synchronisation
// mechanism until the allocator is ready to receive again. The
// allocator reports this (serious) fault on its report channel so
// that it can be logged."
//
// Reference-count protocol (§3.4): a process must inform the
// allocator when it finishes with a buffer without passing it on
// (decrement) and when it sends a descriptor to more than one other
// process (increment). Passing to exactly one process needs no
// traffic.
package allocator

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

// Buffer is one shared segment buffer.
type Buffer struct {
	// Index is the buffer's identity within the pool — what actually
	// travels between processes on the transputer.
	Index int
	// Payload is an in-place wire view over the buffer's own storage;
	// set it with SetPayload. Processes holding the buffer read header
	// fields and sample data directly from this view — the buffer IS
	// the segment's memory while it is in the server, and the pool's
	// reference counts govern when that memory is reused.
	Payload segment.Wire
	// Stream is the Pandora stream number the segment belongs to
	// ("streams within pandora pass the stream number in an extra
	// field preceding the segment header").
	Stream uint32

	// storage is the buffer's backing memory, reused across grants.
	storage []byte
}

// SetPayload copies the wire bytes of src into the buffer's storage —
// the single copy "into memory" an input handler performs (§3.4) —
// and points Payload at the in-place view. The source wire may be
// released afterwards.
func (b *Buffer) SetPayload(src []byte) {
	if cap(b.storage) < len(src) {
		b.storage = make([]byte, len(src))
	}
	b.storage = b.storage[:len(src)]
	copy(b.storage, src)
	b.Payload = segment.WireOver(b.storage)
}

// Report is an allocator fault or status report.
type Report struct {
	Starved bool // a request arrived while no buffers were free
	Free    int
	Total   int
}

func (r Report) String() string {
	if r.Starved {
		return fmt.Sprintf("allocator: STARVED (%d/%d free)", r.Free, r.Total)
	}
	return fmt.Sprintf("allocator: %d/%d free", r.Free, r.Total)
}

// refChange adjusts a buffer's reference count by Delta.
type refChange struct {
	Index int
	Delta int
}

// waiter is one process blocked in Get while the pool is dry: the
// event it sleeps on, and the slot the granting Release fills before
// raising it. Waiter records are recycled through a free list.
type waiter struct {
	granted *occam.Event
	buf     *Buffer
}

// Pool is the allocator handle. Create with New, then call
// Get/Retain/Release from Occam processes.
//
// The allocator is passive: grants and reference-count changes are
// zero-virtual-time bookkeeping, so they run inline in the calling
// process instead of rendezvousing with an allocator process. The
// paper's defining starvation behaviour is kept exactly — "If there
// are no buffers available ... the requesting processes will be
// descheduled" — by parking requesters on signals in FIFO order; the
// Release that frees a buffer grants it to the longest-waiting
// requester and wakes it. Only the report protocol (command/report
// channels, like all other Pandora processes) keeps a process.
type Pool struct {
	rt      *occam.Runtime
	bufs    []*Buffer
	refs    []int
	free    []int
	cmd     *occam.Chan[struct{}] // report request
	reports *occam.Chan[Report]

	// waiters are processes descheduled in Get, FIFO. waiterFree
	// recycles waiter records (and their signals).
	waiters    []*waiter
	waiterFree []*waiter

	wasStarved  bool
	starvations uint64
	grants      uint64
	trace       *obs.Tracer
	source      string
}

// New creates a pool of n buffers and starts the report process on
// node. reports may be nil.
func New(rt *occam.Runtime, node *occam.Node, n int, reports *occam.Chan[Report]) *Pool {
	if n <= 0 {
		panic("allocator: pool size must be positive")
	}
	pl := &Pool{
		rt:      rt,
		bufs:    make([]*Buffer, n),
		refs:    make([]int, n),
		free:    make([]int, 0, n),
		cmd:     occam.NewChan[struct{}](rt, "alloc.cmd"),
		reports: reports,
	}
	for i := n - 1; i >= 0; i-- {
		pl.bufs[i] = &Buffer{Index: i}
		pl.free = append(pl.free, i)
	}
	rt.Go("allocator", node, occam.High, pl.run)
	return pl
}

// Observe registers the pool's counters and free-buffer gauge on reg,
// labelled with owner (the box name), and traces starvation episodes.
func (pl *Pool) Observe(reg *obs.Registry, owner string) {
	lb := obs.L("box", owner)
	reg.CounterFunc("allocator_grants_total", func() uint64 { return pl.grants }, lb)
	reg.CounterFunc("allocator_starvations_total", func() uint64 { return pl.starvations }, lb)
	reg.GaugeFunc("allocator_free", func() float64 { return float64(len(pl.free)) }, lb)
	reg.GaugeFunc("allocator_total", func() float64 { return float64(len(pl.bufs)) }, lb)
	pl.trace = reg.Tracer()
	pl.source = owner + ".allocator"
}

// run is the report process: the allocator's command/report channel
// attachment, kept as a process so a report request never blocks the
// requester on the report collector.
func (pl *Pool) run(p *occam.Proc) {
	for {
		pl.cmd.Recv(p)
		if pl.reports != nil {
			pl.reports.Send(p, Report{Free: len(pl.free), Total: len(pl.bufs)})
		}
	}
}

// grant pops a free buffer for the requester (bookkeeping only — the
// caller hands it over) and logs the starvation fault when the pool
// runs dry, exactly as the paper requires.
func (pl *Pool) grant(p *occam.Proc) *Buffer {
	idx := pl.free[len(pl.free)-1]
	pl.free = pl.free[:len(pl.free)-1]
	pl.refs[idx] = 1
	pl.grants++
	buf := pl.bufs[idx]
	buf.Payload = segment.Wire{}
	buf.Stream = 0
	if len(pl.free) == 0 && !pl.wasStarved {
		// The next request will block: log the (serious) fault.
		pl.wasStarved = true
		pl.starvations++
		pl.trace.Emit(obs.EvOverload, pl.source, 0, "buffer pool exhausted")
		if pl.reports != nil {
			pl.reports.TrySend(p, Report{Starved: true, Free: 0, Total: len(pl.bufs)})
		}
	}
	return buf
}

func (pl *Pool) applyRefChange(ch refChange) {
	if ch.Index < 0 || ch.Index >= len(pl.refs) {
		panic(fmt.Sprintf("allocator: ref change for bad index %d", ch.Index))
	}
	pl.refs[ch.Index] += ch.Delta
	switch {
	case pl.refs[ch.Index] < 0:
		panic(fmt.Sprintf("allocator: buffer %d reference count went negative", ch.Index))
	case pl.refs[ch.Index] == 0:
		pl.free = append(pl.free, ch.Index)
	}
}

// Get obtains an empty buffer. While none are free the requesting
// process is descheduled ("by the usual channel synchronisation
// mechanism") until a Release frees one; blocked requesters are served
// oldest first.
func (pl *Pool) Get(p *occam.Proc) *Buffer {
	if len(pl.free) > 0 && len(pl.waiters) == 0 {
		return pl.grant(p)
	}
	var w *waiter
	if n := len(pl.waiterFree); n > 0 {
		w = pl.waiterFree[n-1]
		pl.waiterFree = pl.waiterFree[:n-1]
	} else {
		w = &waiter{granted: occam.NewEvent(pl.rt, "alloc.wait")}
	}
	pl.waiters = append(pl.waiters, w)
	w.granted.Wait(p)
	w.granted.Clear()
	buf := w.buf
	w.buf = nil
	pl.waiterFree = append(pl.waiterFree, w)
	return buf
}

// wakeWaiter hands a newly freed buffer to the longest-waiting
// requester. The grant bookkeeping runs here, in the releasing
// process, so the freed buffer cannot be stolen before the woken
// requester runs.
func (pl *Pool) wakeWaiter(p *occam.Proc) {
	w := pl.waiters[0]
	copy(pl.waiters, pl.waiters[1:])
	pl.waiters[len(pl.waiters)-1] = nil
	pl.waiters = pl.waiters[:len(pl.waiters)-1]
	w.buf = pl.grant(p)
	w.granted.Set()
}

// Retain adds extra references before a buffer descriptor is sent to
// more than one downstream process ("to increment the reference
// count").
func (pl *Pool) Retain(p *occam.Proc, b *Buffer, extra int) {
	if extra <= 0 {
		return
	}
	pl.applyRefChange(refChange{Index: b.Index, Delta: extra})
}

// Release drops one reference when a process has finished with a
// buffer without passing it on. At zero references the buffer returns
// to the free list — or goes straight to a starved requester.
func (pl *Pool) Release(p *occam.Proc, b *Buffer) {
	pl.applyRefChange(refChange{Index: b.Index, Delta: -1})
	if len(pl.free) > 0 {
		if pl.wasStarved {
			pl.wasStarved = false
			pl.trace.Emit(obs.EvRecover, pl.source, 0, "buffers free again")
		}
		if len(pl.waiters) > 0 {
			pl.wakeWaiter(p)
		}
	}
}

// RequestReport asks the allocator to emit a status report.
func (pl *Pool) RequestReport(p *occam.Proc) {
	pl.cmd.Send(p, struct{}{})
}

// Size returns the pool size.
func (pl *Pool) Size() int { return len(pl.bufs) }

// Starvations returns how many times the pool ran dry.
func (pl *Pool) Starvations() uint64 { return pl.starvations }
