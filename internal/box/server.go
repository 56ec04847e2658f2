package box

import (
	"fmt"
	"time"

	"repro/internal/allocator"
	"repro/internal/atm"
	"repro/internal/decouple"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
)

// The server board (§3.4/§3.5, figure 3.3): input device handlers
// fill shared buffers and send their indices to the switch, which
// consults per-stream tables and forwards descriptors into the
// decoupling buffers of each requested output device. The buffers sit
// *downstream* of the switch "so that the poor performance of one
// output device does not affect streams to other output devices"
// (principle 5), and the switch "simply omits to send ... any more
// segments" to a full one, counting and reporting the drops.

// outIndex maps Output → decoupling buffer slot; OutNetwork expands
// to two buffers (figure 3.7: audio split from video "so that it can
// be given priority", principle 2).
const (
	bufSpeaker = iota
	bufNetAudio
	bufNetVideo
	bufDisplay
	numOutBufs
)

// slotName names a decoupling buffer slot for metrics and traces.
func slotName(slot int) string {
	switch slot {
	case bufSpeaker:
		return "speaker"
	case bufNetAudio:
		return "net-audio"
	case bufNetVideo:
		return "net-video"
	case bufDisplay:
		return "display"
	}
	return "?"
}

func (b *Box) startServer() {
	rt, name := b.rt, b.cfg.Name
	mk := func(slot int, nm string, capacity int) {
		opts := []decouple.Option{decouple.WithReady(), decouple.WithObs(b.cfg.Obs)}
		if ws := b.cfg.SinkStalls[slotName(slot)]; len(ws) > 0 {
			opts = append(opts, decouple.WithStall(faultinject.Stalls(ws)))
		}
		b.outBufs[slot] = decouple.New[*allocator.Buffer](rt, name+"."+nm, capacity, opts...)
	}
	mk(bufSpeaker, "spkbuf", switchBufferSegments)
	mk(bufNetAudio, "netAbuf", netAudioBufferSegments)
	mk(bufNetVideo, "netVbuf", netVideoBufferSegments)
	mk(bufDisplay, "dispbuf", switchBufferSegments)

	rt.Go(name+".switch", b.serverNode, occam.High, b.runSwitch)
	rt.Go(name+".audioIn", b.serverNode, occam.High, b.runAudioIn)
	rt.Go(name+".netIn", b.serverNode, occam.High, b.runNetIn)
	rt.Go(name+".captureIn", b.serverNode, occam.High, b.runCaptureIn)
	rt.Go(name+".audioOut", b.serverNode, occam.High, b.runAudioOut)
	rt.Go(name+".netOut", b.serverNode, occam.High, b.runNetOut)
	rt.Go(name+".displayOut", b.serverNode, occam.High, b.runDisplayOut)
}

// appendBufSlots appends the decoupling buffer slots serving a route
// output, picked by the wire's in-place type field. With the A2
// ablation everything network-bound shares the video buffer, losing
// audio its separate queue.
func (b *Box) appendBufSlots(slots []int, o Output, w segment.Wire) []int {
	switch o {
	case OutSpeaker:
		return append(slots, bufSpeaker)
	case OutDisplay:
		return append(slots, bufDisplay)
	case OutNetwork:
		if b.cfg.SharedNetBuffer || w.Type() == segment.TypeVideo {
			return append(slots, bufNetVideo)
		}
		return append(slots, bufNetAudio)
	}
	return slots
}

// runSwitch is the server data switch: PRI ALT with commands first
// (principle 4), then ready-channel updates, then data.
func (b *Box) runSwitch(p *occam.Proc) {
	rep := newReporter(b.cfg.Name+".switch", b.Reports)
	routes := make(map[uint32]*Route)
	shed := make(map[uint32]bool) // overload-controller suspensions
	senders := make([]*decouple.Sender[*allocator.Buffer], numOutBufs)
	for i := range senders {
		senders[i] = decouple.NewSender(b.outBufs[i])
	}
	// Principle-3 state per output buffer: how many of the oldest
	// streams are currently being degraded, and when the last forced
	// (buffer-full) drop happened.
	degrade := make([]int, numOutBufs)
	lastForced := make([]occam.Time, numOutBufs)

	// The guard slice is built once and reused: the sender ready
	// guards track their own conditions across iterations.
	var (
		cmd SwitchCommand
		buf *allocator.Buffer
	)
	guards := make([]occam.Guard, 0, numOutBufs+2)
	guards = append(guards, occam.Recv(b.switchCmd, &cmd))
	for _, s := range senders {
		guards = append(guards, s.ReadyGuard())
	}
	guards = append(guards, occam.Recv(b.toSwitch, &buf))
	slots := make([]int, 0, numOutBufs)

	for {
		switch idx := p.Alt(guards...); {
		case idx == 0:
			b.handleSwitchCommand(p, rep, routes, shed, cmd)
		case idx <= numOutBufs:
			senders[idx-1].Update()
		default:
			r := routes[buf.Stream]
			if r == nil {
				b.swStats.NoRoute++
				b.pool.Release(p, buf)
				continue
			}
			if shed[buf.Stream] {
				// The overload controller suspended this stream: stop
				// its data at the earliest shared point, before any
				// copying or buffering.
				b.swStats.ShedDrops++
				b.swStats.PerStreamDrops[buf.Stream]++
				b.pool.Release(p, buf)
				b.trace.Emit(obs.EvDrop, b.cfg.Name+".switch", buf.Stream, "degrade-shed")
				continue
			}
			size := buf.Payload.Len()
			p.Consume(serverSwitchCost + time.Duration(size)*serverCopyPerKB/1024)

			// Expand outputs to buffer slots.
			slots = slots[:0]
			for _, o := range r.Outputs {
				slots = b.appendBufSlots(slots, o, buf.Payload)
			}
			if len(slots) == 0 {
				b.pool.Release(p, buf)
				continue
			}
			b.swStats.Switched++
			// One reference per destination (§3.4).
			b.pool.Retain(p, buf, len(slots)-1)
			for _, slot := range slots {
				// Principle 3: under pressure, the oldest streams
				// degrade first.
				if degrade[slot] > 0 && b.isAmongOldest(routes, r, slot, degrade[slot]) {
					// Principle 3 in action: the oldest stream degrades
					// to protect the younger ones.
					b.swStats.AgeDrops[slot]++
					b.swStats.PerStreamDrops[buf.Stream]++
					b.pool.Release(p, buf)
					b.trace.Emit(obs.EvDrop, b.cfg.Name+".switch", buf.Stream,
						"age-degrade "+slotName(slot))
					continue
				}
				if !senders[slot].Deliver(p, buf) {
					// Buffer full: "the switch simply omits to send it
					// any more segments... records how many segments
					// have been dropped in this way, and periodically
					// sends reports while the condition persists."
					b.swStats.FullDrops[slot]++
					b.swStats.PerStreamDrops[buf.Stream]++
					b.pool.Release(p, buf)
					rep.Report(p, fmt.Sprintf("full-%d", slot),
						"output %d full: dropping (total %d)", slot, b.swStats.FullDrops[slot])
					if degrade[slot] < b.streamsFor(routes, slot)-1 {
						degrade[slot]++
						b.trace.Emit(obs.EvOverload, b.cfg.Name+".switch", buf.Stream,
							fmt.Sprintf("output %s full, degrading %d oldest", slotName(slot), degrade[slot]))
					}
					lastForced[slot] = p.Now()
				}
			}
			// Relax degradation when no forced drop for a while
			// (principle 8: adapt to local conditions).
			for slot := range degrade {
				if degrade[slot] > 0 && p.Now().Sub(lastForced[slot]) > 500*time.Millisecond {
					degrade[slot]--
					lastForced[slot] = p.Now()
					if degrade[slot] == 0 {
						b.trace.Emit(obs.EvRecover, b.cfg.Name+".switch", 0,
							"output "+slotName(slot)+" recovered")
					}
				}
			}
		}
	}
}

func (b *Box) handleSwitchCommand(p *occam.Proc, rep *Reporter, routes map[uint32]*Route, shed map[uint32]bool, cmd SwitchCommand) {
	switch {
	case cmd.Set != nil:
		r := *cmd.Set
		routes[r.Stream] = &r
		b.trace.Emit(obs.EvReconfig, b.cfg.Name+".switch", r.Stream,
			fmt.Sprintf("route set: %v", r.Outputs))
	case cmd.HasClose:
		delete(routes, cmd.Close)
		delete(shed, cmd.Close)
		b.trace.Emit(obs.EvReconfig, b.cfg.Name+".switch", cmd.Close, "route closed")
	case cmd.HasShed:
		shed[cmd.Shed] = true
		b.trace.Emit(obs.EvReconfig, b.cfg.Name+".switch", cmd.Shed, "stream shed")
	case cmd.HasRestore:
		delete(shed, cmd.Restore)
		b.trace.Emit(obs.EvReconfig, b.cfg.Name+".switch", cmd.Restore, "stream restored")
	case cmd.ReportReq:
		rep.Report(p, "status", "routes=%d switched=%d noroute=%d",
			len(routes), b.swStats.Switched, b.swStats.NoRoute)
	}
}

// streamsFor counts streams routed to a buffer slot.
func (b *Box) streamsFor(routes map[uint32]*Route, slot int) int {
	n := 0
	for _, r := range routes {
		for _, o := range r.Outputs {
			if slotMatches(o, slot) {
				n++
			}
		}
	}
	return n
}

// isAmongOldest reports whether r is within the k oldest streams
// routed to slot. The open-time list is gathered into a reused
// scratch slice and insertion-sorted (a handful of streams at most) —
// this runs per switched segment under degrade pressure.
func (b *Box) isAmongOldest(routes map[uint32]*Route, r *Route, slot, k int) bool {
	opened := b.openedScratch[:0]
	for _, o := range routes {
		for _, out := range o.Outputs {
			if slotMatches(out, slot) {
				opened = append(opened, o.Opened)
				break
			}
		}
	}
	b.openedScratch = opened[:0]
	if len(opened) <= 1 {
		return false
	}
	for i := 1; i < len(opened); i++ {
		for j := i; j > 0 && opened[j-1] > opened[j]; j-- {
			opened[j-1], opened[j] = opened[j], opened[j-1]
		}
	}
	if k > len(opened)-1 {
		k = len(opened) - 1
	}
	cutoff := opened[k-1]
	return r.Opened <= cutoff
}

func slotMatches(o Output, slot int) bool {
	switch o {
	case OutSpeaker:
		return slot == bufSpeaker
	case OutNetwork:
		return slot == bufNetAudio || slot == bufNetVideo
	case OutDisplay:
		return slot == bufDisplay
	}
	return false
}

// runAudioIn receives mic segments from the audio board link, fills
// buffers obtained in advance from the allocator, and launches their
// indices into the switch. Copying the wire into the buffer is the
// data path's first copy (§3.4: "once into memory").
func (b *Box) runAudioIn(p *occam.Proc) {
	var buf *allocator.Buffer
	for {
		if buf == nil {
			buf = b.pool.Get(p) // "obtain empty buffers ... in advance"
		}
		msg := b.audioToServer.Recv(p)
		if b.boardDown(p, "server") {
			msg.W.Release() // the pre-fetched buffer waits for recovery
			continue
		}
		size := msg.W.Len()
		p.Consume(time.Duration(size) * serverCopyPerKB / 1024)
		buf.SetPayload(msg.W.Bytes())
		msg.W.Release()
		buf.Stream = msg.Stream
		b.toSwitch.Send(p, buf)
		buf = nil
	}
}

// runNetIn receives network messages; the VCI is the local stream
// number (§3.4).
func (b *Box) runNetIn(p *occam.Proc) {
	reasm := make(map[uint32]*chunkedVideo)
	// corruptSeg marks a VCI whose pending segment took a corrupted
	// chunk; the whole reassembled segment is then discarded ("the
	// current segment is thrown away", §3.8).
	corruptSeg := make(map[uint32]bool)
	var buf *allocator.Buffer
	for {
		if buf == nil {
			buf = b.pool.Get(p)
		}
		var (
			m atm.Message
			w segment.Wire
		)
		for {
			m = b.host.Rx.Recv(p)
			if b.boardDown(p, "server") {
				m.W.Release()
				continue
			}
			if m.Corrupt {
				corruptSeg[m.VCI] = true
			}
			var done bool
			if w, done = reassemble(reasm, m); done {
				break
			}
		}
		if corruptSeg[m.VCI] {
			delete(corruptSeg, m.VCI)
			b.swStats.CorruptDrops++
			b.swStats.PerStreamDrops[m.VCI]++
			b.trace.Emit(obs.EvDrop, b.cfg.Name+".netIn", m.VCI, "corrupt-discard")
			w.Release()
			continue
		}
		p.Consume(time.Duration(m.Size) * serverCopyPerKB / 1024)
		buf.SetPayload(w.Bytes())
		w.Release()
		buf.Stream = m.VCI
		b.toSwitch.Send(p, buf)
		buf = nil
	}
}

// runCaptureIn receives compressed video segments from the capture
// board fifo.
func (b *Box) runCaptureIn(p *occam.Proc) {
	var buf *allocator.Buffer
	for {
		if buf == nil {
			buf = b.pool.Get(p)
		}
		msg := b.captureToServer.Recv(p)
		if b.boardDown(p, "server") {
			msg.W.Release()
			continue
		}
		p.Consume(time.Duration(msg.W.Len()) * serverCopyPerKB / 1024)
		buf.SetPayload(msg.W.Bytes())
		msg.W.Release()
		buf.Stream = msg.Stream
		b.toSwitch.Send(p, buf)
		buf = nil
	}
}

// runAudioOut moves speaker-bound segments over the link to the audio
// board: the copy out of the server buffer into a pooled wire is this
// output device's single copy (§3.4: "once out for each output
// device"), after which the buffer index is free to recycle.
func (b *Box) runAudioOut(p *occam.Proc) {
	out := b.outBufs[bufSpeaker]
	for {
		buf := out.Take(p)
		size := buf.Payload.Len() + segment.StreamNumberSize
		p.Consume(time.Duration(size) * serverCopyPerKB / 1024)
		w := b.wires.Copy(buf.Payload.Bytes())
		b.serverToAudio.Send(p, wireMsg{Stream: buf.Stream, W: w}, size)
		b.pool.Release(p, buf)
	}
}

// runDisplayOut moves display-bound video over the fifo to the mixer
// board (copy out at the display device, as in runAudioOut).
func (b *Box) runDisplayOut(p *occam.Proc) {
	out := b.outBufs[bufDisplay]
	for {
		buf := out.Take(p)
		size := buf.Payload.Len()
		p.Consume(time.Duration(size) * serverCopyPerKB / 1024)
		w := b.wires.Copy(buf.Payload.Bytes())
		b.serverToMixer.Send(p, wireMsg{Stream: buf.Stream, W: w}, size)
		b.pool.Release(p, buf)
	}
}

// netTransmit occupies the network output process for a message's
// transmission time at the interface bandwidth.
func (b *Box) netTransmit(p *occam.Proc, size int) {
	p.Sleep(time.Duration(int64(size) * 8 * int64(time.Second) / b.cfg.NetInterfaceBits))
}

// netChunkSize is the A4 interleaving granularity.
const netChunkSize = 1024

// chunkedVideo is the per-VCI reassembly state for interleaved video
// (A4 ablation). Every chunk of a segment carries a reference to the
// same wire, so reassembly keeps the first chunk's reference and
// releases the rest.
type chunkedVideo struct {
	got, total int
	seq        uint32
	w          segment.Wire
}

// reassemble merges chunked video; whole messages pass through. It
// consumes every message's wire reference: the returned wire carries
// exactly one, duplicates and superseded partials are released.
func reassemble(m map[uint32]*chunkedVideo, msg atm.Message) (segment.Wire, bool) {
	if msg.ChunkTotal <= 1 {
		return msg.W, true
	}
	seq := msg.W.Seq()
	st, ok := m[msg.VCI]
	if !ok || st.seq != seq || st.total != msg.ChunkTotal {
		if ok {
			st.w.Release() // abandon the stale partial segment
		}
		st = &chunkedVideo{total: msg.ChunkTotal, seq: seq, w: msg.W}
		m[msg.VCI] = st
	} else {
		msg.W.Release() // the partial already holds this segment's wire
	}
	st.got++
	if st.got >= st.total {
		delete(m, msg.VCI)
		return st.w, true
	}
	return segment.Wire{}, false
}

// runNetOut is the network output process. Audio takes priority over
// video (principle 2, figure 3.7): the audio decoupling buffer is
// always polled first. Without InterleaveNetwork, a whole video
// segment is one network message, so "video segments can hold up
// following audio segments" (§4.2) on the shared first link.
func (b *Box) runNetOut(p *occam.Proc) {
	rep := newReporter(b.cfg.Name+".netOut", b.Reports)
	bufs := [2]*decouple.Buffer[*allocator.Buffer]{b.outBufs[bufNetAudio], b.outBufs[bufNetVideo]}
	guards := []occam.Guard{
		bufs[0].Offered(), // principle 2: audio first
		bufs[1].Offered(),
	}
	for {
		buf := bufs[p.Alt(guards...)].Take(p)
		vcis, ok := b.netVCI[buf.Stream]
		if !ok {
			vcis = []uint32{buf.Stream}
		}
		if len(vcis) == 0 {
			// A reparented or subtree-shed relay with nothing downstream:
			// an explicitly empty fan-out means send nowhere (distinct
			// from the never-routed VCI-identity default above).
			b.pool.Release(p, buf)
			continue
		}
		// Splitting to several network destinations sends one descriptor
		// per VCI; a slow destination only affects its own circuit
		// (principle 5 — drops happen inside the network, never here).
		isVideo := buf.Payload.Type() == segment.TypeVideo
		if isVideo && b.cfg.InterleaveNetwork {
			for _, vci := range vcis {
				b.sendChunked(p, rep, vci, b.wires.Copy(buf.Payload.Bytes()))
			}
		} else {
			// Copy out of the server buffer once (the network
			// interface's single copy, §3.4); every VCI then shares the
			// wire under its own reference. Non-interleaved video
			// occupies the interface for the whole segment, holding up
			// any audio waiting in its buffer (§4.2).
			w := b.wires.Copy(buf.Payload.Bytes())
			w.Retain(len(vcis) - 1)
			for _, vci := range vcis {
				b.netTransmit(p, w.Len())
				err := b.host.Send(p, atm.Message{VCI: vci, Size: w.Len(), W: w})
				if err != nil {
					w.Release() // the circuit never took the reference
					if isVideo {
						rep.Report(p, "nocircuit", "video stream %d: %v", buf.Stream, err)
					} else {
						rep.Report(p, "nocircuit", "audio stream %d: %v", buf.Stream, err)
					}
				}
			}
		}
		b.pool.Release(p, buf)
	}
}

// sendChunked splits a video segment into cell-train chunks and lets
// waiting audio through between chunks (A4: interleaved transmission).
// It consumes the wire reference it is given: each chunk message
// carries its own reference to the same wire.
func (b *Box) sendChunked(p *occam.Proc, rep *Reporter, vci uint32, w segment.Wire) {
	total := (w.Len() + netChunkSize - 1) / netChunkSize
	w.Retain(total - 1)
	audioOut := b.outBufs[bufNetAudio]
	for i := 0; i < total; i++ {
		// Drain any waiting audio first (principle 2 at chunk
		// granularity).
		for {
			abuf, ok := audioOut.TryTake(p)
			if !ok {
				break
			}
			avcis, ok := b.netVCI[abuf.Stream]
			if !ok {
				avcis = []uint32{abuf.Stream}
			}
			if len(avcis) == 0 {
				b.pool.Release(p, abuf)
				continue
			}
			aw := b.wires.Copy(abuf.Payload.Bytes())
			aw.Retain(len(avcis) - 1)
			for _, avci := range avcis {
				b.netTransmit(p, aw.Len())
				if err := b.host.Send(p, atm.Message{VCI: avci, Size: aw.Len(), W: aw}); err != nil {
					aw.Release()
					rep.Report(p, "nocircuit", "audio stream %d: %v", abuf.Stream, err)
				}
			}
			b.pool.Release(p, abuf)
		}
		size := netChunkSize
		if i == total-1 {
			size = w.Len() - (total-1)*netChunkSize
		}
		b.netTransmit(p, size)
		err := b.host.Send(p, atm.Message{
			VCI: vci, Size: size, W: w,
			ChunkIndex: i, ChunkTotal: total,
		})
		if err != nil {
			rep.Report(p, "nocircuit", "video chunk: %v", err)
			for j := i; j < total; j++ {
				w.Release() // the unsent chunks' references
			}
			return
		}
	}
}
