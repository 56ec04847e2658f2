package box

import (
	"time"

	"repro/internal/decouple"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/workload"
)

// The audio board (§3.5, figure 3.5): the codec produces a 16-byte
// block every 2 ms; the block handler batches blocks into Pandora
// segments and orders the server writer to transmit them, "a separate
// process to allow some concurrency in case the Server is busy". The
// incoming direction runs per-stream clawback buffers feeding the
// mixing code, which reads one block from each every 2 ms.
//
// Priorities implement principle 1 on this box: the outgoing side
// (micReader, serverWriter) runs at High priority on the audio
// transputer, the incoming mixing at Low, so under CPU overload
// "incoming data streams [are] degraded before outgoing data
// streams". A repository box reverses this (§2.1).

func (b *Box) startAudio() {
	rt, name := b.rt, b.cfg.Name
	b.micOutBuf = decouple.New[wireMsg](rt, name+".micbuf", 8,
		decouple.WithReady(), decouple.WithObs(b.cfg.Obs))

	outPri, inPri := occam.High, occam.Low
	if b.cfg.RepositoryPriority {
		outPri, inPri = occam.Low, occam.High
	}
	rt.Go(name+".micReader", b.audioNode, outPri, b.runMicReader)
	rt.Go(name+".serverWriter", b.audioNode, outPri, b.runServerWriter)
	rt.Go(name+".audioRx", b.audioNode, occam.High, b.runAudioRx)
	rt.Go(name+".blockHandler", b.audioNode, inPri, b.runBlockHandler)
}

// runMicReader is the outgoing side of the block handler: every 2 ms
// it takes the codec block, applies muting, and batches blocks into
// segments for the server writer. Segments are stamped "as close as
// possible to the data source" (§3.2).
func (b *Box) runMicReader(p *occam.Proc) {
	sender := decouple.NewSender(b.micOutBuf)
	// The accumulating segment is built in place: blocks are filled
	// directly into the tail of a reused sample buffer (for sources
	// implementing workload.BlockFiller) and the Audio header is reset
	// around it per segment. WirePool.Encode copies the bytes out, so
	// both are recycled immediately after the single encode.
	filler, _ := b.cfg.Mic.(workload.BlockFiller)
	var (
		stream  uint32
		active  bool
		adata   []byte // accumulated samples of the segment being built
		nblocks int
		aseg    segment.Audio
		stampAt occam.Time
		seq     uint32
		perSeg  = b.cfg.BlocksPerSegment
	)
	// The guard slice is hoisted: Recv overwrites cmd wholesale on
	// every fire, so the variable can be reused across iterations.
	var (
		cmd    audioCmd
		guards = []occam.Guard{
			occam.Recv(b.audioCmds, &cmd),
			sender.ReadyGuard(),
			occam.Skip(),
		}
	)
	for n := int64(0); ; n++ {
		p.SleepUntil(occam.Time(n * int64(segment.BlockDuration)))
		// Commands are taken between blocks (principle 4): "A command
		// will be received as soon as the process has finished
		// dealing with any current segment."
		for {
			which := p.Alt(guards...)
			if which == 2 {
				break
			}
			if which == 1 {
				sender.Update()
				continue
			}
			switch {
			case cmd.StartMic != nil:
				stream, active, seq = *cmd.StartMic, true, 0
				nblocks = 0
				b.trace.Emit(obs.EvStreamOpen, b.cfg.Name+".mic", stream, "mic started")
			case cmd.StopMic:
				active = false
				b.trace.Emit(obs.EvStreamClose, b.cfg.Name+".mic", stream, "mic stopped")
			}
			if cmd.SetBlocks > 0 && cmd.SetBlocks <= segment.MaxBlocksPerSegment {
				perSeg = cmd.SetBlocks
				nblocks = 0
				b.trace.Emit(obs.EvReconfig, b.cfg.Name+".mic", stream,
					"blocks-per-segment changed")
			}
		}
		if !active {
			continue
		}
		p.Consume(audioOutgoingCost)
		if nblocks == 0 {
			// Stamp at the first sample's entry to the codec — the
			// start of this block's 2 ms sampling window — so
			// measured latency is mouth-to-ear like the paper's 8 ms
			// figure (§4.2). The codec samples on its own hardware
			// clock, so the window start is the nominal tick, not the
			// (contention-dependent) instant this process got
			// scheduled; stamping nominally also charges any software
			// delay at the source to the measured latency instead of
			// hiding it.
			stampAt = occam.Time((n - 1) * int64(segment.BlockDuration))
			adata = adata[:0]
		}
		var blk []byte
		if filler != nil {
			if cap(adata) < len(adata)+segment.BlockSamples {
				adata = append(adata, make([]byte, segment.BlockSamples)...)
			} else {
				adata = adata[:len(adata)+segment.BlockSamples]
			}
			blk = adata[len(adata)-segment.BlockSamples:]
			filler.FillBlock(blk)
		} else {
			blk = b.cfg.Mic.NextBlock()
		}
		if b.cfg.Features.Muting {
			b.muter.ApplyMic(int64(p.Now()), blk)
		}
		if filler == nil {
			adata = append(adata, blk...)
		}
		nblocks++
		b.audioStat.MicBlocks++
		if nblocks >= perSeg {
			// The single encode at the capture source (§3.4): from here
			// to the output device only the wire descriptor moves.
			w := b.wires.Encode(aseg.Reset(seq, stampAt, adata))
			seq++
			nblocks = 0
			if !sender.Deliver(p, wireMsg{Stream: stream, W: w}) {
				// Back pressure reached the source: throw away data
				// here, closest to the codec (§3.7.1).
				w.Release()
				b.audioStat.MicDrops++
				b.trace.Emit(obs.EvDrop, b.cfg.Name+".mic", stream, "mic-backpressure")
			} else {
				b.audioStat.MicSegs++
			}
		}
	}
}

// runServerWriter drains the audio board's decoupling buffer over the
// 20 Mbit/s link to the server.
func (b *Box) runServerWriter(p *occam.Proc) {
	for {
		msg := b.micOutBuf.Take(p)
		b.audioToServer.Send(p, msg, msg.W.Len()+segment.StreamNumberSize)
	}
}

// runAudioRx receives speaker-bound segments from the server link and
// feeds the per-stream clawback buffers. Input runs "without data
// loss as far as the decoupling buffers" — any dropping is the
// clawback buffers' decision.
func (b *Box) runAudioRx(p *occam.Proc) {
	for {
		msg := b.serverToAudio.Recv(p)
		if b.boardDown(p, "audio") {
			msg.W.Release()
			continue
		}
		b.mix.Deliver(msg.Stream, msg.W)
	}
}

// runBlockHandler is the incoming side: every 2 ms it mixes one block
// from each active stream's clawback buffer and plays it to the
// codec, observing the output for the muting detector. CPU cost is
// accounted per the §4.2 calibration; ticks that overrun the 2 ms
// budget are the measure of audio-board overload (experiment E1).
func (b *Box) runBlockHandler(p *occam.Proc) {
	for n := int64(1); ; n++ {
		deadline := occam.Time(n * int64(segment.BlockDuration))
		p.SleepUntil(deadline)
		start := p.Now()
		if start > deadline+occam.Time(segment.BlockDuration) {
			// We are more than a whole block late: account the
			// missed ticks rather than replaying them all. This is
			// principle 1's overload signal on the audio board.
			missed := int64(start-deadline) / int64(segment.BlockDuration)
			n += missed
			b.audioStat.LateTicks += uint64(missed)
			b.trace.Emit(obs.EvOverload, b.cfg.Name+".audio", 0, "mixing tick overran")
		}
		blk, mixed := b.mix.Tick(int64(p.Now()))
		cost := audioTickBase + time.Duration(mixed)*audioMixCost
		if b.cfg.Features.JitterCorrection {
			cost += time.Duration(mixed) * audioClawCost
		}
		if b.cfg.Features.Muting {
			cost += audioMuteCost
			b.muter.ObserveSpeaker(int64(p.Now()), blk)
		}
		if b.cfg.Features.Interface {
			cost += audioInterfaceCost
		}
		// Consume in slice-sized chunks: the transputer's high
		// priority processes preempt low priority ones, so a long
		// mixing pass must not block the outgoing side for its whole
		// duration.
		for cost > 0 {
			c := cost
			if c > 400*time.Microsecond {
				c = 400 * time.Microsecond
			}
			p.Consume(c)
			cost -= c
		}
		b.audioStat.TicksRun++
		if p.Now() > deadline.Add(segment.BlockDuration) {
			b.audioStat.LateTicks++
		}
	}
}
