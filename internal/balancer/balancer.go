// Package balancer is the placement control plane above core: one
// process that keeps a scoreboard of per-box/per-port health sampled
// from the obs registry (fabric queue depths, shed and fault
// counters, degradation state, the box's net-copy watermark and the
// wire's per-VCI ingress copies), ranks boxes with a weighted load
// score under hysteresis, and acts on the ranking three ways:
//
//   - placement: it installs itself as core's Placer, so tree
//     attachment, late-join pulls and RepairTree adopter scans pick
//     the least-loaded eligible box instead of the first fit, and
//     `call A ?` timeline events pick the least-loaded callee;
//   - admission: new calls are admitted against a concurrency budget
//     and rejected outright when it is exhausted — rejecting a call
//     that cannot be served well comes before degrading ones that are
//     being served (principle 1's ordering: reject > shed-video >
//     shed-audio);
//   - migration: when a relay box's fabric egress queue stays above
//     the migrate high-water mark, its forwarded subtrees are
//     re-homed onto less-loaded boxes mid-stream via core.RepairTree
//     — a repair minus the fault, applied between segments
//     (principle 6) over the fabric's existing VCI route updates.
//
// Determinism: the balancer samples only on its own virtual-time
// ticks, never reads the wall clock, and iterates boxes in sorted
// name order; ranking is a stable sort on the banded score, so score
// ties preserve placement order and a fully idle system places
// exactly like first-fit. Replays with the same seed are therefore
// byte-identical.
//
// Ownership: the balancer never touches segment wires. It reads
// gauges, installs placement rankings, and drives route changes only
// through core's control API (RepairTree); every wire it causes to
// move is moved — and refcounted — by core, fabric and box under
// their own ownership rules.
package balancer

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/box"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/occam"
)

// Config parameterises a Balancer. Zero values select defaults.
type Config struct {
	// Interval is the scoreboard sampling / migration-decision period
	// (default 40 ms).
	Interval time.Duration
	// Budget bounds concurrently admitted calls; further calls are
	// rejected until one closes. 0 means no admission control.
	Budget int
	// Hysteresis is the score band: a box's effective score follows
	// its raw score only when the raw score moves further than this
	// from the last adopted value (default 0.10), so rankings do not
	// flap with queue jitter.
	Hysteresis float64
	// MigrateHighWater is the fabric egress-queue occupancy ratio at
	// or above which a relay box's subtrees are migrated away
	// (default 0.85).
	MigrateHighWater float64
	// Cooldown is the minimum spacing between migrations (default
	// 2 s) — one route reshape at a time, settle, then look again.
	Cooldown time.Duration
	// MaxMigrations bounds migrations per run (0 = unlimited).
	MaxMigrations int

	// Score weights; zero selects the default. The formula is
	//
	//	score = WQueue·queue + WIngress·ingress
	//	      + WSheds·min(1, sheds/4) + WFaults·min(1, faults)
	//	      + WCopies·min(1, copies/16) + WPlace·min(1, placements/16)
	//
	// with queue/ingress the port occupancy ratios. Defaults: 1.0,
	// 0.5, 0.5, 0.25, 0.25, 0.125 — queue pressure dominates, the
	// rest break ties toward quiet, rarely-chosen boxes.
	WQueue, WIngress, WSheds, WFaults, WCopies, WPlace float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 40 * time.Millisecond
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.10
	}
	if c.MigrateHighWater <= 0 {
		c.MigrateHighWater = 0.85
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.WQueue == 0 {
		c.WQueue = 1.0
	}
	if c.WIngress == 0 {
		c.WIngress = 0.5
	}
	if c.WSheds == 0 {
		c.WSheds = 0.5
	}
	if c.WFaults == 0 {
		c.WFaults = 0.25
	}
	if c.WCopies == 0 {
		c.WCopies = 0.25
	}
	if c.WPlace == 0 {
		c.WPlace = 0.125
	}
	return c
}

// Sample is one box's scoreboard reading at one tick.
type Sample struct {
	// Queue and Ingress are the box's fabric-port egress and ingress
	// queue occupancy ratios (0 for boxes not on a fabric).
	Queue, Ingress float64
	// Sheds counts degradation activity: active shed streams at the
	// box and its port, plus 1 if the port shed cells since the last
	// tick.
	Sheds float64
	// Faults is 1 if the port dropped cells to injected faults since
	// the last tick.
	Faults float64
	// Copies is the forwarded-copy watermark: the larger of the box's
	// MaxNetCopies and the port's biggest per-VCI ingress copy count.
	Copies float64
	// Placements counts how often the balancer has placed load here.
	Placements float64
}

// Score folds a sample into the weighted raw load score.
func (c Config) Score(s Sample) float64 {
	return c.WQueue*s.Queue + c.WIngress*s.Ingress +
		c.WSheds*clamp01(s.Sheds/4) + c.WFaults*clamp01(s.Faults) +
		c.WCopies*clamp01(s.Copies/16) + c.WPlace*clamp01(s.Placements/16)
}

// applyHysteresis returns the next effective score: raw is adopted
// only when it moved out of the band around the previous value.
func (c Config) applyHysteresis(eff, raw float64) float64 {
	if raw > eff+c.Hysteresis || raw < eff-c.Hysteresis {
		return raw
	}
	return eff
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Migration is one logged mid-stream migration decision.
type Migration struct {
	At     occam.Time
	Box    string  // the hot box load was moved away from
	Stream uint32  // source-local stream id of the reshaped tree
	Moved  int     // subtrees re-homed
	Queue  float64 // the egress occupancy ratio that triggered it
}

func (m Migration) String() string {
	return fmt.Sprintf("[%10.3fms] migrate %d subtree(s) of stream %d off %s (queue=%.2f)",
		m.At.Millis(), m.Moved, m.Stream, m.Box, m.Queue)
}

// board is one box's scoreboard slot.
type board struct {
	name string
	bx   *box.Box
	pt   *fabric.Port

	qd, ql, id, il        *obs.Probe // port egress/ingress depth+limit gauges
	shed, fault           *obs.Probe // port shed/fault drop counters
	boxActive, portActive *obs.Probe // degrade_active_sheds at box and port

	prevShed, prevFault float64
	lastQueue           float64 // most recent raw egress ratio (migration trigger)
	raw, eff            float64
	placements          uint64
}

// Balancer is the control plane. It is driven entirely by the
// virtual-time runtime (its own tick process plus core's placement
// callbacks), so no locking is needed.
type Balancer struct {
	sys *core.System
	cfg Config
	reg *obs.Registry

	names  []string
	boards map[string]*board

	admitted int
	accepted uint64
	rejected uint64
	placed   uint64
	managed  []*core.Stream
	migs     []Migration
	migFrom  map[string]int
	lastMig  occam.Time
	everMig  bool
}

// New builds a Balancer over sys's current boxes, installs it as the
// system's Placer, and registers its own obs instruments
// (balancer_score per box, balancer_rejected_total,
// balancer_migrations_total, balancer_placements_total). Call Start
// to begin sampling; placement ranking works immediately (all scores
// zero until the first tick, so early placements equal first-fit).
func New(sys *core.System, cfg Config) *Balancer {
	b := &Balancer{
		sys:     sys,
		cfg:     cfg.withDefaults(),
		reg:     sys.Obs,
		names:   sys.BoxNames(),
		boards:  make(map[string]*board),
		migFrom: make(map[string]int),
	}
	for _, name := range b.names {
		bd := &board{name: name, bx: sys.Box(name)}
		bd.boxActive = b.reg.Probe("degrade_active_sheds", obs.L("box", name))
		if pt := sys.FabricPort(name); pt != nil {
			bd.pt = pt
			lb := obs.L("port", pt.Name())
			bd.qd = b.reg.Probe("fabric_port_queue_depth", lb)
			bd.ql = b.reg.Probe("fabric_port_queue_limit", lb)
			bd.id = b.reg.Probe("fabric_port_ingress_depth", lb)
			bd.il = b.reg.Probe("fabric_port_ingress_limit", lb)
			bd.shed = b.reg.Probe("fabric_port_shed_drops_total", lb)
			bd.fault = b.reg.Probe("fabric_port_fault_drops_total", lb)
			bd.portActive = b.reg.Probe("degrade_active_sheds", obs.L("box", pt.Name()))
		}
		b.boards[name] = bd
		func(bd *board) {
			b.reg.GaugeFunc("balancer_score", func() float64 { return bd.eff }, obs.L("box", bd.name))
		}(bd)
	}
	b.reg.CounterFunc("balancer_rejected_total", func() uint64 { return b.rejected })
	b.reg.CounterFunc("balancer_admitted_total", func() uint64 { return b.accepted })
	b.reg.CounterFunc("balancer_placements_total", func() uint64 { return b.placed })
	b.reg.CounterFunc("balancer_migrations_total", func() uint64 { return uint64(len(b.migs)) })
	sys.SetPlacer(b)
	return b
}

// Start launches the sampling/migration tick process.
func (b *Balancer) Start() {
	b.sys.RT.Go("balancer", nil, occam.High, b.run)
}

func (b *Balancer) run(p *occam.Proc) {
	for {
		p.Sleep(b.cfg.Interval)
		b.tick()
		b.maybeMigrate(p)
	}
}

// tick samples every board in sorted name order and updates the
// banded effective scores.
func (b *Balancer) tick() {
	for _, name := range b.names {
		bd := b.boards[name]
		s := bd.sampleNow()
		bd.lastQueue = s.Queue
		bd.raw = b.cfg.Score(s)
		bd.eff = b.cfg.applyHysteresis(bd.eff, bd.raw)
	}
}

// sampleNow reads one box's probes and counter deltas.
func (bd *board) sampleNow() Sample {
	var s Sample
	s.Queue = obs.Ratio(bd.qd, bd.ql)
	s.Ingress = obs.Ratio(bd.id, bd.il)
	s.Sheds = val(bd.boxActive) + val(bd.portActive)
	if shed := val(bd.shed); shed > bd.prevShed {
		s.Sheds++
		bd.prevShed = shed
	}
	if fault := val(bd.fault); fault > bd.prevFault {
		s.Faults = 1
		bd.prevFault = fault
	}
	copies := 0
	if bd.bx != nil {
		copies = bd.bx.MaxNetCopies()
	}
	if bd.pt != nil {
		for _, c := range bd.pt.IngressCopies() {
			if int(c) > copies {
				copies = int(c)
			}
		}
	}
	s.Copies = float64(copies)
	s.Placements = float64(bd.placements)
	return s
}

// val reads a probe as 0 when it is nil or missing: boxes meshed over
// pairwise links have no fabric port, so the port instruments (and
// obs.Ratio over them) simply read as idle.
func val(p *obs.Probe) float64 {
	v, _ := p.Value()
	return v
}

// RankBoxes implements core.Placer: a stable sort of the candidates
// by effective score, least loaded first, so score ties keep
// placement order (first-fit). The winner's placement count rises —
// the WPlace term that spreads otherwise-identical boxes.
func (b *Balancer) RankBoxes(cands []string) []string {
	ranked := append([]string(nil), cands...)
	sort.SliceStable(ranked, func(i, j int) bool {
		return b.effOf(ranked[i]) < b.effOf(ranked[j])
	})
	if bd := b.boards[ranked[0]]; bd != nil {
		bd.placements++
		b.placed++
	}
	return ranked
}

func (b *Balancer) effOf(name string) float64 {
	if bd := b.boards[name]; bd != nil {
		return bd.eff
	}
	return 0
}

// PlaceCall picks the least-loaded box (other than from) reachable in
// both directions — the callee for a `call FROM ?` timeline event.
func (b *Balancer) PlaceCall(from string) (string, bool) {
	var cands []string
	for _, n := range b.names {
		if n == from {
			continue
		}
		if b.sys.Connectable(from, n) && b.sys.Connectable(n, from) {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	return b.RankBoxes(cands)[0], true
}

// AdmitCall decides one new call (or conference, or stream-opening
// timeline op) against the budget: reject before degrade. Admitted
// calls hold a budget slot until ReleaseCall.
func (b *Balancer) AdmitCall() bool {
	if b.cfg.Budget > 0 && b.admitted >= b.cfg.Budget {
		b.rejected++
		return false
	}
	b.admitted++
	b.accepted++
	return true
}

// ReleaseCall returns one admitted call's budget slot.
func (b *Balancer) ReleaseCall() {
	if b.admitted > 0 {
		b.admitted--
	}
}

// Manage registers an open tree stream as a migration candidate.
func (b *Balancer) Manage(st *core.Stream) {
	if st != nil && st.Tree != nil {
		b.managed = append(b.managed, st)
	}
}

// maybeMigrate performs at most one migration per tick: the first box
// in sorted order whose egress occupancy sits at or above the
// high-water mark, and that relays a managed stream, has that
// stream's subtrees re-homed via core.RepairTree. The cooldown (and
// MaxMigrations cap) keeps reshapes apart so the fabric settles
// between them — no ping-pong.
func (b *Balancer) maybeMigrate(p *occam.Proc) {
	if b.cfg.MaxMigrations > 0 && len(b.migs) >= b.cfg.MaxMigrations {
		return
	}
	now := p.Now()
	if b.everMig && now.Sub(b.lastMig) < b.cfg.Cooldown {
		return
	}
	for _, name := range b.names {
		bd := b.boards[name]
		if bd.lastQueue < b.cfg.MigrateHighWater {
			continue
		}
		for _, st := range b.managed {
			if st.Tree.Relays(name) == 0 {
				continue
			}
			moved := b.sys.RepairTree(p, st, name)
			if moved == 0 {
				continue
			}
			b.migs = append(b.migs, Migration{
				At: now, Box: name, Stream: st.Local, Moved: moved, Queue: bd.lastQueue,
			})
			b.migFrom[name]++
			b.lastMig, b.everMig = now, true
			b.reg.Tracer().Emit(obs.EvRepair, "balancer", st.Local,
				fmt.Sprintf("migrated %d subtree(s) off hot %s (queue=%.2f)", moved, name, bd.lastQueue))
			return
		}
	}
}

// Rejected returns how many calls admission refused.
func (b *Balancer) Rejected() uint64 { return b.rejected }

// Admitted returns how many calls admission accepted (cumulative).
func (b *Balancer) Admitted() uint64 { return b.accepted }

// Migrations returns the migration log.
func (b *Balancer) Migrations() []Migration { return append([]Migration(nil), b.migs...) }

// MigrationsFrom returns how many migrations moved load off box.
func (b *Balancer) MigrationsFrom(box string) int { return b.migFrom[box] }

// Placements returns how often the balancer placed load on box.
func (b *Balancer) Placements(box string) uint64 {
	if bd := b.boards[box]; bd != nil {
		return bd.placements
	}
	return 0
}

// BoxScore is one scoreboard row for reports.
type BoxScore struct {
	Name       string
	Eff, Raw   float64
	Queue      float64
	Placements uint64
}

// Scores returns the scoreboard in sorted name order.
func (b *Balancer) Scores() []BoxScore {
	out := make([]BoxScore, 0, len(b.names))
	for _, name := range b.names {
		bd := b.boards[name]
		out = append(out, BoxScore{
			Name: name, Eff: bd.eff, Raw: bd.raw,
			Queue: bd.lastQueue, Placements: bd.placements,
		})
	}
	return out
}
