// Package mixer implements Pandora's destination-side audio mixing
// (paper §2.0, §3.7.2, §3.8): any number of incoming audio streams
// are mixed by software in real time, each arriving through its own
// clawback buffer; "a 2ms block is read from the output end of each
// buffer every 2ms by the audio mixing code".
//
// Stream lifecycle is fully adaptive (principle 8): "the audio code
// does not have to be informed of the creation or deletion of
// streams; it just adapts to the incoming data". A block arriving for
// an unknown stream creates its clawback buffer; a buffer found empty
// at mixing time is deactivated and removed.
//
// Error recovery follows §3.8: segments carry sequence numbers, so
// the destination detects missing segments as soon as a later one
// arrives; for audio we "replay the last 2ms block, and try to ensure
// that it does not happen frequently" — concealment is bounded so
// repeated loss degrades to silence rather than a garbled loop.
package mixer

import (
	"fmt"
	"slices"

	"repro/internal/clawback"
	"repro/internal/mulaw"
	"repro/internal/obs"
	"repro/internal/segment"
)

// DefaultMaxConcealBlocks bounds how many replayed blocks one
// sequence gap may insert ("Replaying the last 2ms block occasionally
// is perfectly acceptable... replaying 2ms blocks frequently gives a
// garbled effect").
const DefaultMaxConcealBlocks = 4

// Config parameterises a Mixer. Zero values select defaults.
type Config struct {
	// Clawback is the per-stream buffer configuration; its Pool field
	// is overridden by the mixer's shared pool.
	Clawback clawback.Config
	// PoolBlocks is the shared clawback pool size (default 4 s).
	PoolBlocks int
	// MaxConcealBlocks bounds loss concealment per sequence gap.
	MaxConcealBlocks int
	// Obs, if non-nil, registers per-stream and pool instruments
	// (labelled with Name) and traces stream lifecycle and drops.
	Obs *obs.Registry
	// Name identifies this mixer in metrics and traces (usually the
	// box name; default "mixer").
	Name string
}

// StreamStats reports one stream's reception history. The counters
// live in the observability registry when one is attached; StreamStats
// is reconstructed from them on demand.
type StreamStats struct {
	Segments       uint64 // segments delivered
	Blocks         uint64 // blocks delivered
	LostSegments   uint64 // detected by sequence-number gaps
	Concealed      uint64 // blocks filled by replaying the last block
	LateDuplicates uint64 // late or duplicate segments thrown away (§3.8)
	Reactivations  uint64 // times the stream was re-created after idle
	// Digest is an FNV-1a hash over every delivered segment's sequence
	// number and sample bytes, in arrival order — the stream's delivery
	// set as one comparable word. Two runs delivered byte-identical
	// audio for this stream iff their digests and Segments counts match
	// (the scenario layer's "survivors byte-identical" assertion).
	Digest   uint64
	Clawback clawback.Stats
}

// streamCounters are one stream's registry instruments.
type streamCounters struct {
	segments      *obs.Counter
	blocks        *obs.Counter
	lost          *obs.Counter
	concealed     *obs.Counter
	lateDups      *obs.Counter
	reactivations *obs.Counter
}

// stream is one incoming audio stream's destination state. lastBlock
// is an owned copy of the most recent block — concealment must not
// alias wire storage that may be recycled before the replay plays.
type stream struct {
	buf       *clawback.Buffer
	nextSeq   uint32
	seenAny   bool
	lastBlock [segment.BlockSamples]byte
	haveLast  bool
	active    bool
	digest    uint64
	c         streamCounters
}

// Mixer mixes any number of incoming audio streams into one outgoing
// 2 ms block per tick. Not safe for concurrent use (it lives inside
// the audio transputer's block handler process).
type Mixer struct {
	cfg     Config
	pool    *clawback.Pool
	streams map[uint32]*stream
	ticks   uint64

	// shed holds streams suspended by the overload controller
	// (internal/degrade): their deliveries are discarded until restored.
	shed      map[uint32]bool
	shedDrops *obs.Counter

	// Per-tick scratch, reused: the returned block is valid until the
	// next Tick.
	out []byte
	ids []uint32

	// OnPlayout, if set, is called for every block played with the
	// stream id, the block's source timestamp and the playout time
	// (both nanoseconds of stream time) — the end-to-end latency
	// instrument for experiment E3.
	OnPlayout func(stream uint32, stamp, now int64)
}

// New returns a mixer with the given configuration.
func New(cfg Config) *Mixer {
	if cfg.MaxConcealBlocks <= 0 {
		cfg.MaxConcealBlocks = DefaultMaxConcealBlocks
	}
	if cfg.Name == "" {
		cfg.Name = "mixer"
	}
	m := &Mixer{
		cfg:     cfg,
		pool:    clawback.NewPool(cfg.PoolBlocks),
		streams: make(map[uint32]*stream),
		shed:    make(map[uint32]bool),
		out:     make([]byte, segment.BlockSamples),
	}
	lb := obs.L("box", cfg.Name)
	m.shedDrops = cfg.Obs.Counter("mixer_shed_drops_total", lb)
	cfg.Obs.GaugeFunc("clawback_pool_used", func() float64 { return float64(m.pool.Used()) }, lb)
	cfg.Obs.GaugeFunc("clawback_pool_capacity", func() float64 { return float64(m.pool.Capacity()) }, lb)
	cfg.Obs.CounterFunc("clawback_pool_exhausted_total", func() uint64 { return m.pool.Exhausted }, lb)
	cfg.Obs.GaugeFunc("mixer_active_streams", func() float64 { return float64(m.ActiveStreams()) }, lb)
	cfg.Obs.CounterFunc("mixer_ticks_total", func() uint64 { return m.ticks }, lb)
	return m
}

// Pool returns the shared clawback pool (for reports).
func (m *Mixer) Pool() *clawback.Pool { return m.pool }

// ActiveStreams returns the number of streams currently mixing.
func (m *Mixer) ActiveStreams() int {
	n := 0
	for _, s := range m.streams {
		if s.active {
			n++
		}
	}
	return n
}

// Stats returns the reception statistics for a stream, which persist
// across deactivations.
func (m *Mixer) Stats(id uint32) StreamStats {
	s, ok := m.streams[id]
	if !ok {
		return StreamStats{}
	}
	return StreamStats{
		Segments:       s.c.segments.Value(),
		Blocks:         s.c.blocks.Value(),
		LostSegments:   s.c.lost.Value(),
		Concealed:      s.c.concealed.Value(),
		LateDuplicates: s.c.lateDups.Value(),
		Reactivations:  s.c.reactivations.Value(),
		Digest:         s.digest,
		Clawback:       s.buf.Stats(),
	}
}

// newStream creates destination state for stream id, registering its
// instruments and its clawback buffer's.
func (m *Mixer) newStream(id uint32) *stream {
	cfg := m.cfg.Clawback
	cfg.Pool = m.pool
	cfg.Obs = m.cfg.Obs
	cfg.Owner = fmt.Sprintf("%s/%d", m.cfg.Name, id)
	reg := m.cfg.Obs
	lbs := []obs.Label{obs.L("box", m.cfg.Name), obs.L("stream", fmt.Sprint(id))}
	return &stream{
		buf:    clawback.New(cfg),
		active: true,
		digest: fnvOffset,
		c: streamCounters{
			segments:      reg.Counter("mixer_segments_total", lbs...),
			blocks:        reg.Counter("mixer_blocks_total", lbs...),
			lost:          reg.Counter("mixer_lost_segments_total", lbs...),
			concealed:     reg.Counter("mixer_concealed_total", lbs...),
			lateDups:      reg.Counter("mixer_late_duplicates_total", lbs...),
			reactivations: reg.Counter("mixer_reactivations_total", lbs...),
		},
	}
}

func (m *Mixer) source() string { return m.cfg.Name + ".mixer" }

// Deliver feeds one arriving audio segment for stream id into its
// clawback buffer, creating or reactivating the stream as needed and
// concealing any sequence gap. It reads headers and sample blocks in
// place from the wire and consumes one wire reference: queued blocks
// alias the wire under their own references (one Retain per item);
// whatever is not queued costs nothing and the wire is released.
func (m *Mixer) Deliver(id uint32, w segment.Wire) {
	tr := m.cfg.Obs.Tracer()
	if m.shed[id] {
		// The overload controller shed this stream: discard the
		// segment (releasing its wire) until DegradeRestore.
		m.shedDrops.Inc()
		tr.Emit(obs.EvDrop, m.source(), id, "degrade-shed")
		w.Release()
		return
	}
	s, ok := m.streams[id]
	if !ok {
		s = m.newStream(id)
		m.streams[id] = s
		tr.Emit(obs.EvStreamOpen, m.source(), id, "stream created")
	} else if !s.active {
		// "If a block arrives for a stream that does not have a
		// buffer, a new clawback buffer will be inserted, and mixing
		// will resume."
		s.active = true
		s.c.reactivations.Inc()
		tr.Emit(obs.EvStreamOpen, m.source(), id, "stream reactivated")
	}
	s.c.segments.Inc()

	seq := w.Seq()
	blocks := w.AudioBlocks()
	base := int64(segment.TimestampTime(w.Timestamp()))

	// Sequence-gap detection and bounded concealment (§3.8).
	if s.seenAny && seq != s.nextSeq {
		// Signed 32-bit difference so sequence wraparound and late
		// duplicates both classify correctly.
		gap := int(int32(seq - s.nextSeq)) // whole missing segments
		if gap > 0 {
			s.c.lost.Add(uint64(gap))
			conceal := gap * blocks
			if conceal > m.cfg.MaxConcealBlocks {
				conceal = m.cfg.MaxConcealBlocks
			}
			if conceal > 0 && s.haveLast {
				// One owned copy per gap episode, shared by every
				// replayed block queued for it.
				replay := append([]byte(nil), s.lastBlock[:]...)
				for i := 0; i < conceal; i++ {
					stamp := base - int64(conceal-i)*int64(segment.BlockDuration)
					if s.buf.PushItem(clawback.Item{Data: replay, Stamp: stamp}) != clawback.DropNone {
						break
					}
					s.c.concealed.Inc()
				}
			}
		} else {
			// A negative gap is a late duplicate or reordering: the
			// general rule applies — "the current segment is thrown
			// away" (§3.8). Queueing its blocks would play duplicated
			// audio, so the payload is discarded; the stream still
			// resynchronises to the duplicate's sequence number.
			s.c.lateDups.Inc()
			tr.Emit(obs.EvDrop, m.source(), id, "late-duplicate")
			s.nextSeq = seq + 1
			w.Release()
			return
		}
	}
	s.nextSeq = seq + 1
	s.seenAny = true

	s.digest = fnvFold(s.digest, byte(seq), byte(seq>>8), byte(seq>>16), byte(seq>>24))
	for i := 0; i < blocks; i++ {
		blk := w.AudioBlock(i)
		s.digest = fnvFold(s.digest, blk...)
		w.Retain(1) // the queued item's reference; dropped items release it
		s.buf.PushItem(clawback.Item{
			Data:  blk,
			Stamp: base + int64(i)*int64(segment.BlockDuration),
			W:     w,
		})
	}
	if blocks > 0 {
		copy(s.lastBlock[:], w.AudioBlock(blocks-1))
		s.haveLast = true
	}
	s.c.blocks.Add(uint64(blocks))
	w.Release()
}

// Tick produces the next mixed 2 ms block of µ-law samples at stream
// time now (nanoseconds). Streams whose buffers are empty contribute
// silence and are deactivated; with no active streams the returned
// block is pure silence.
//
// mixed reports how many streams contributed audio — the mixing work
// done this tick, which the audio board accounts CPU time for.
//
// The returned block is scratch storage reused by the next Tick;
// callers must finish with it (play it, copy it) before then.
func (m *Mixer) Tick(now int64) (block []byte, mixed int) {
	m.ticks++
	var sum [segment.BlockSamples]int32
	// Iterate deterministically: map order must not leak into audio.
	for _, id := range m.orderedIDs() {
		s := m.streams[id]
		if !s.active {
			continue
		}
		it, ok := s.buf.PopItem()
		if !ok {
			// "The time saved when a clawback buffer is found to be
			// empty is used to deactivate the stream."
			s.active = false
			s.buf.Drain()
			m.cfg.Obs.Tracer().Emit(obs.EvStreamClose, m.source(), id, "stream deactivated")
			continue
		}
		for i := 0; i < segment.BlockSamples; i++ {
			sum[i] += int32(mulaw.Decode(it.Data[i]))
		}
		if m.OnPlayout != nil {
			m.OnPlayout(id, it.Stamp, now)
		}
		it.W.Release() // the sample data has been mixed out
		mixed++
	}
	out := m.out
	for i := range out {
		v := sum[i]
		switch {
		case v > 32767:
			v = 32767
		case v < -32768:
			v = -32768
		}
		out[i] = mulaw.Encode(int16(v))
	}
	return out, mixed
}

// SetShed suspends (or, with shed=false, resumes) mixing of stream id
// on the overload controller's orders. Shedding drains the stream's
// clawback buffer — releasing its queued wire references back to the
// pool — and deactivates it; subsequent deliveries are discarded and
// counted on mixer_shed_drops_total. Restoring simply lifts the bar:
// the next delivery reactivates the stream through the normal adaptive
// path (principle 8).
func (m *Mixer) SetShed(id uint32, shed bool) {
	if !shed {
		delete(m.shed, id)
		return
	}
	if m.shed[id] {
		return
	}
	m.shed[id] = true
	if s, ok := m.streams[id]; ok && s.active {
		s.active = false
		s.buf.Drain()
		m.cfg.Obs.Tracer().Emit(obs.EvStreamClose, m.source(), id, "stream shed")
	}
}

// Ticks returns how many mixing ticks have run.
func (m *Mixer) Ticks() uint64 { return m.ticks }

// FNV-1a, folded inline so the delivery digest costs no allocation on
// the per-segment path.
const fnvOffset = 14695981039346656037

func fnvFold(h uint64, bs ...byte) uint64 {
	for _, b := range bs {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// orderedIDs returns the stream ids in ascending order for
// deterministic mixing, reusing the mixer's scratch slice.
func (m *Mixer) orderedIDs() []uint32 {
	ids := m.ids[:0]
	for id := range m.streams {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	m.ids = ids
	return ids
}
