// Package degrade is the overload controller: one small process per
// box that watches the pressure signals already in the obs registry —
// decoupling-buffer depth (decouple_queued / decouple_limit) and ATM
// output-queue depth (atm_link_queue_depth / atm_link_queue_limit) —
// and applies the paper's ordered degradation policy when they stay
// high:
//
//   - video is bounded and shed before audio (principle 2): audio
//     streams are only shed under direct audio-buffer pressure, and
//     only after every video candidate is exhausted;
//   - incoming streams are shed before outgoing ones (principle 1),
//     reversed for repository boxes (§2.1), where the recorded
//     incoming stream is the one that must not be damaged;
//   - within a class, the longest-open stream is shed first
//     (principle 3), so new streams keep starting cleanly under load.
//
// A shed is delivered to the box as a switch-table suspension plus a
// mixer-side bar (Target.DegradeShed), so the data flow stops at the
// earliest point without touching the route itself; when pressure
// stays below the low-water mark for a hold period, streams are
// restored in LIFO order — the least-disruptive first (principle 8:
// local adaptation, no end-to-end cooperation). Every decision is
// counted (degrade_shed_total, degrade_restore_total) and traced
// (EvOverload / EvRecover), and kept in an action log the experiments
// assert on.
package degrade

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/occam"
)

// StreamInfo describes one candidate stream at the target box.
type StreamInfo struct {
	ID       uint32
	Video    bool
	Incoming bool // delivered locally (speaker/display) vs network-bound
	Opened   occam.Time
}

// Target is the box-side interface the controller drives. A
// *box.Box implements it; tests use fakes.
type Target interface {
	// DegradeName identifies the target in metrics and traces.
	DegradeName() string
	// DegradeStreams lists the currently routed streams.
	DegradeStreams() []StreamInfo
	// DegradeVideoBuffers and DegradeAudioBuffers name the decoupling
	// buffers (the obs "buffer" label values) whose occupancy is this
	// box's video and audio pressure.
	DegradeVideoBuffers() []string
	DegradeAudioBuffers() []string
	// DegradeShed suspends a stream; DegradeRestore resumes it.
	DegradeShed(p *occam.Proc, id uint32)
	DegradeRestore(p *occam.Proc, id uint32)
	// DegradeRepositoryOrder reverses incoming-before-outgoing
	// (repository boxes protect incoming recorded streams, §2.1).
	DegradeRepositoryOrder() bool
}

// Config parameterises a Controller. Zero values select defaults.
type Config struct {
	// Interval is the control-loop period (default 20 ms).
	Interval time.Duration
	// HighWater is the pressure ratio at or above which streams are
	// shed (default 0.75).
	HighWater float64
	// LowWater is the ratio below which restores begin (default 0.25).
	LowWater float64
	// Hold is how long pressure must stay below LowWater — and the
	// minimum spacing between restores (default 400 ms).
	Hold time.Duration
	// ShedEvery is the minimum spacing between sheds, so the ladder
	// descends one stream at a time (default 100 ms).
	ShedEvery time.Duration
	// MaxShed bounds concurrently shed streams (0 = all but none —
	// no limit).
	MaxShed int
	// Links names the atm links (the obs "link" label values) whose
	// output-queue pressure counts toward this box's video pressure —
	// congestion there is relieved by shedding video at this box.
	Links []string
	// Ports names the fabric ports (the obs "port" label values) whose
	// egress-queue pressure counts toward this target's video pressure.
	// Used by per-port fabric controllers; a port target has no audio
	// buffers, so port congestion never sheds audio (principle 2 holds
	// trivially at the fabric).
	Ports []string
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.HighWater <= 0 {
		c.HighWater = 0.75
	}
	if c.LowWater <= 0 {
		c.LowWater = 0.25
	}
	if c.Hold <= 0 {
		c.Hold = 400 * time.Millisecond
	}
	if c.ShedEvery <= 0 {
		c.ShedEvery = 100 * time.Millisecond
	}
	return c
}

// Action is one logged controller decision.
type Action struct {
	At       occam.Time
	Restore  bool
	Stream   uint32
	Video    bool
	Incoming bool
	// VideoPressure/AudioPressure are the ratios that triggered it.
	VideoPressure, AudioPressure float64
}

func (a Action) String() string {
	return fmt.Sprintf("[%10.3fms] %s stream %d (video=%.2f audio=%.2f)",
		a.At.Millis(), a.desc(), a.Stream, a.VideoPressure, a.AudioPressure)
}

// desc is the action without timestamp, stream or pressures — the
// trace-event message (the ring records those fields itself).
func (a Action) desc() string {
	verb, class, dir := "shed", "audio", "outgoing"
	if a.Restore {
		verb = "restore"
	}
	if a.Video {
		class = "video"
	}
	if a.Incoming {
		dir = "incoming"
	}
	return verb + " " + class + " " + dir
}

// Controller is one box's overload controller process.
type Controller struct {
	target Target
	cfg    Config
	reg    *obs.Registry
	trace  *obs.Tracer

	shed  map[uint32]StreamInfo
	stack []uint32 // restore order: last shed, first restored
	log   []Action

	lastHigh    occam.Time
	lastShed    occam.Time
	lastRestore occam.Time

	shedVideo *obs.Counter
	shedAudio *obs.Counter
	restores  *obs.Counter
	ticks     *obs.Counter
	pVideo    *obs.Gauge
	pAudio    *obs.Gauge

	// Pre-keyed pressure probes, one queue/limit pair per watched
	// buffer, link and port (the name lists are fixed per target, so
	// the instrument keys are built once, not every tick).
	videoProbes []queueProbe
	audioProbes []queueProbe
}

// queueProbe is one watched queue's depth and limit, read through
// obs.Ratio.
type queueProbe struct{ depth, limit *obs.Probe }

// New starts a controller for target on rt. reg must be the registry
// the target's buffers and links report into — it is both the
// controller's sensor and where its own instruments register.
func New(rt *occam.Runtime, target Target, cfg Config, reg *obs.Registry) *Controller {
	cfg = cfg.withDefaults()
	lb := obs.L("box", target.DegradeName())
	c := &Controller{
		target:    target,
		cfg:       cfg,
		reg:       reg,
		trace:     reg.Tracer(),
		shed:      make(map[uint32]StreamInfo),
		shedVideo: reg.Counter("degrade_shed_total", lb, obs.L("media", "video")),
		shedAudio: reg.Counter("degrade_shed_total", lb, obs.L("media", "audio")),
		restores:  reg.Counter("degrade_restore_total", lb),
		ticks:     reg.Counter("degrade_ticks_total", lb),
		pVideo:    reg.Gauge("degrade_pressure_video", lb),
		pAudio:    reg.Gauge("degrade_pressure_audio", lb),
	}
	reg.GaugeFunc("degrade_active_sheds", func() float64 { return float64(len(c.shed)) }, lb)
	watch := func(depth, limit string, l obs.Label) queueProbe {
		return queueProbe{reg.Probe(depth, l), reg.Probe(limit, l)}
	}
	for _, name := range target.DegradeVideoBuffers() {
		c.videoProbes = append(c.videoProbes, watch("decouple_queued", "decouple_limit", obs.L("buffer", name)))
	}
	for _, link := range cfg.Links {
		c.videoProbes = append(c.videoProbes, watch("atm_link_queue_depth", "atm_link_queue_limit", obs.L("link", link)))
	}
	for _, port := range cfg.Ports {
		c.videoProbes = append(c.videoProbes, watch("fabric_port_queue_depth", "fabric_port_queue_limit", obs.L("port", port)))
	}
	for _, name := range target.DegradeAudioBuffers() {
		c.audioProbes = append(c.audioProbes, watch("decouple_queued", "decouple_limit", obs.L("buffer", name)))
	}
	rt.Go(target.DegradeName()+".degrade", nil, occam.High, c.run)
	return c
}

// Actions returns the decision log.
func (c *Controller) Actions() []Action { return append([]Action(nil), c.log...) }

// ActiveSheds returns the currently shed stream ids, most recent last.
func (c *Controller) ActiveSheds() []uint32 { return append([]uint32(nil), c.stack...) }

func (c *Controller) run(p *occam.Proc) {
	for {
		p.Sleep(c.cfg.Interval)
		c.ticks.Inc()
		video, audio := c.pressure()
		c.pVideo.Set(video)
		c.pAudio.Set(audio)
		now := p.Now()
		switch {
		case video >= c.cfg.HighWater || audio >= c.cfg.HighWater:
			c.lastHigh = now
			if now.Sub(c.lastShed) >= c.cfg.ShedEvery {
				c.shedOne(p, now, video, audio)
			}
		case video < c.cfg.LowWater && audio < c.cfg.LowWater &&
			len(c.stack) > 0 &&
			now.Sub(c.lastHigh) >= c.cfg.Hold &&
			now.Sub(c.lastRestore) >= c.cfg.Hold:
			c.restoreOne(p, now, video, audio)
		}
	}
}

// pressure reads the pre-keyed probes: each class's pressure is the
// worst ratio across its watched buffers; outbound link and port
// queues count toward video, the class whose shedding relieves them.
func (c *Controller) pressure() (video, audio float64) {
	for _, pr := range c.videoProbes {
		video = maxf(video, obs.Ratio(pr.depth, pr.limit))
	}
	for _, pr := range c.audioProbes {
		audio = maxf(audio, obs.Ratio(pr.depth, pr.limit))
	}
	return video, audio
}

// rank orders candidates by the paper's policy: video before audio
// always; within a class, incoming before outgoing (reversed for
// repositories); ties broken by age, oldest first.
func (c *Controller) rank(s StreamInfo) int {
	r := 0
	if !s.Video {
		r += 2
	}
	first := s.Incoming
	if c.target.DegradeRepositoryOrder() {
		first = !s.Incoming
	}
	if !first {
		r++
	}
	return r
}

// shedOne picks and sheds the single best victim, if any. Audio
// candidates are considered only under direct audio pressure, and even
// then every video stream goes first.
func (c *Controller) shedOne(p *occam.Proc, now occam.Time, video, audio float64) {
	if c.cfg.MaxShed > 0 && len(c.shed) >= c.cfg.MaxShed {
		return
	}
	var cands []StreamInfo
	for _, s := range c.target.DegradeStreams() {
		if _, already := c.shed[s.ID]; already {
			continue
		}
		if !s.Video && audio < c.cfg.HighWater {
			continue // audio is only shed under audio pressure
		}
		cands = append(cands, s)
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		ri, rj := c.rank(cands[i]), c.rank(cands[j])
		if ri != rj {
			return ri < rj
		}
		if cands[i].Opened != cands[j].Opened {
			return cands[i].Opened < cands[j].Opened
		}
		return cands[i].ID < cands[j].ID
	})
	victim := cands[0]
	c.target.DegradeShed(p, victim.ID)
	c.shed[victim.ID] = victim
	c.stack = append(c.stack, victim.ID)
	c.lastShed = now
	if victim.Video {
		c.shedVideo.Inc()
	} else {
		c.shedAudio.Inc()
	}
	act := Action{At: now, Stream: victim.ID, Video: victim.Video,
		Incoming: victim.Incoming, VideoPressure: video, AudioPressure: audio}
	c.log = append(c.log, act)
	c.trace.Emit(obs.EvOverload, c.target.DegradeName()+".degrade", victim.ID, act.desc())
}

// restoreOne lifts the most recent shed (LIFO: the least-disruptive
// restore, since the youngest shed was the lowest-priority victim).
func (c *Controller) restoreOne(p *occam.Proc, now occam.Time, video, audio float64) {
	id := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	info := c.shed[id]
	delete(c.shed, id)
	c.target.DegradeRestore(p, id)
	c.lastRestore = now
	c.restores.Inc()
	act := Action{At: now, Restore: true, Stream: id, Video: info.Video,
		Incoming: info.Incoming, VideoPressure: video, AudioPressure: audio}
	c.log = append(c.log, act)
	c.trace.Emit(obs.EvRecover, c.target.DegradeName()+".degrade", id, act.desc())
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
