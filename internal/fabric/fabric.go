// Package fabric is the scale-out ATM switching fabric: an N-port
// cell switch connecting arbitrarily many Pandora boxes, where the
// single shared `internal/atm` link set of the small simulations
// becomes a real contended switch. The paper's boxes hung off
// 20 Mbit/s-per-link ATM switches and the whole design (principles
// 1–8) assumes many boxes contending for shared capacity; the fabric
// is where that contention lives.
//
// Topology: each attached host owns one Port. A message sent by the
// host enters its port's bounded *ingress* queue, crosses the
// crossbar (paced at a configurable speed-up of the port rate, with
// per-VCI routing looked up at crossing time), and lands in the
// destination port's bounded *egress* queue, which a batching
// transmitter drains onto the destination host at the port line rate.
// All queues are drop-tail: upstream never blocks, congestion shows
// up as queue depth and then drops — exactly the atm.Link contract,
// but per port, so a slow or faulted output degrades only its own
// port (principle 5 across the fabric).
//
// The hot path is cell-aware but not cell-granular: a message's 48-byte
// payload cells are accounted (queue bounds and transmission times are
// in cells, including the 5-byte header tax) while the unit moved is
// still one wire descriptor, and the egress transmitter drains whole
// *batches* of queued messages per timer event so a deep backlog costs
// one scheduler wake-up per cell train, not per segment.
//
// Engine: the fabric is *passive* — it owns no processes except one
// transmitter per port. Each port's crossbar shard is a self-
// perpetuating occam.Timer chain: ingress admission runs inline in the
// sending host's process, the crossing-end callback routes the message
// (dense per-VCI table, no allocation) and applies the destination
// port's admission pipeline, and only delivery — which must be able to
// block on host backpressure — happens in the port's transmitter
// process, woken by an occam.Event when an arrival starts a new cell
// train. Per message the fabric costs two timer events (one crossing,
// amortised share of one train) instead of the eight-plus park/wake
// handshakes of a process-per-stage pipeline, and the ports' shards
// are independent: port A's backlog never wakes port B's code.
//
// Ownership: a message's wire reference rides the descriptor through
// both queues; every drop point (ingress overflow, unrouted VCI, shed
// VCI, injected fault, egress overflow) releases it, and delivery
// transfers it to the receiving host, which releases after its single
// copy-in. The fabric never touches payload bytes except to fold
// delivered bytes into the per-port delivery digest.
//
// Per-port observability (fabric_port_* counters, queue-depth gauges)
// registers into internal/obs; each port implements degrade.Target so
// one overload controller per port sheds the port's own video streams
// oldest-first without disturbing any other port.
package fabric

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/atm"
	"repro/internal/degrade"
	"repro/internal/obs"
	"repro/internal/occam"
)

// ATM cell geometry: 48 payload bytes carried in 53 wire bytes.
const (
	cellPayload = 48
	cellWire    = 53
)

// cells returns the number of ATM cells a message of size bytes
// occupies.
func cells(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + cellPayload - 1) / cellPayload
}

// Config parameterises a Fabric. Zero values select defaults.
type Config struct {
	// PortBandwidth is each port's egress line rate in bits per second
	// (default 100 Mbit/s, the Medusa-era upgrade; the paper's original
	// switches ran 20 Mbit/s per link).
	PortBandwidth int64
	// Propagation is the egress propagation delay per cell train.
	Propagation time.Duration
	// IngressLimit bounds a port's ingress queue in messages
	// (default 64).
	IngressLimit int
	// EgressCellLimit bounds a port's egress queue in cells
	// (default 8192 ≈ 384 KB of payload).
	EgressCellLimit int
	// BatchCells is the egress transmitter's maximum cell train per
	// timer event (default 256 cells ≈ 12 KB). Larger trains cost
	// fewer scheduler wake-ups under backlog but coarsen delivery
	// timing by one train's transmission time.
	BatchCells int
	// XbarSpeedup is the crossbar's service rate as a multiple of
	// PortBandwidth (default 8): the shared backplane is faster than
	// any one port, so sustained congestion collects at egress queues,
	// as in a real output-queued switch.
	XbarSpeedup int
}

func (c Config) withDefaults() Config {
	if c.PortBandwidth <= 0 {
		c.PortBandwidth = 100_000_000
	}
	if c.IngressLimit <= 0 {
		c.IngressLimit = 64
	}
	if c.EgressCellLimit <= 0 {
		c.EgressCellLimit = 8192
	}
	if c.BatchCells <= 0 {
		c.BatchCells = 256
	}
	if c.XbarSpeedup <= 0 {
		c.XbarSpeedup = 8
	}
	return c
}

// route is one VCI's entry in the fabric routing table.
type route struct {
	out    *Port
	video  bool
	opened occam.Time
}

// routeTabMax bounds the dense routing table: VCIs below this live in
// a slice indexed directly by VCI (the allocation-free per-cell
// lookup); pathological VCIs above it fall back to the map.
const routeTabMax = 1 << 20

// Fabric is an N-port cell-switched ATM fabric on one runtime.
type Fabric struct {
	rt       *occam.Runtime
	nm       string
	cfg      Config
	ports    []*Port
	routes   map[uint32]*route // full table: iteration + high-VCI fallback
	routeTab []*route          // dense by VCI: the per-cell fast path
	reg      *obs.Registry
	trace    *obs.Tracer
}

// New returns an empty fabric named name. Attach ports, install
// routes, then drive the runtime.
func New(rt *occam.Runtime, name string, cfg Config) *Fabric {
	return &Fabric{
		rt:     rt,
		nm:     name,
		cfg:    cfg.withDefaults(),
		routes: make(map[uint32]*route),
	}
}

// Name returns the fabric's name.
func (f *Fabric) Name() string { return f.nm }

// Observe attaches an observability registry: every port (existing and
// future) registers its counters and queue-depth gauges, and routing
// changes and drops are traced.
func (f *Fabric) Observe(reg *obs.Registry) {
	f.reg = reg
	f.trace = reg.Tracer()
	for _, pt := range f.ports {
		pt.observe(reg)
	}
}

// Attach creates the next port, connects h to it (the port becomes the
// host's outgoing transport; deliveries arrive on the host's Rx), and
// returns it.
func (f *Fabric) Attach(h *atm.Host) *Port {
	id := len(f.ports)
	pt := &Port{
		fab:       f,
		id:        id,
		nm:        fmt.Sprintf("%s.p%02d", f.nm, id),
		host:      h,
		shed:      make(map[uint32]bool),
		perVCI:    make(map[uint32]*vciDigest),
		inByVCI:   make(map[uint32]uint64),
		forwarded: obs.NewCounter(),
		bytes:     obs.NewCounter(),
		cellsTx:   obs.NewCounter(),
		inDrops:   obs.NewCounter(),
		egDrops:   obs.NewCounter(),
		unrouted:  obs.NewCounter(),
		shedDrops: obs.NewCounter(),
		faultDrop: obs.NewCounter(),
		faultCorr: obs.NewCounter(),
		faultDup:  obs.NewCounter(),
		faultDel:  obs.NewCounter(),
		faultStal: obs.NewCounter(),
	}
	pt.crossTimer = occam.NewTimer(f.rt, pt.crossDone)
	pt.txWake = occam.NewTimer(f.rt, func(s occam.Sched) { s.Set(pt.txEv) })
	pt.txEv = occam.NewEvent(f.rt, pt.nm+".txwake")
	f.ports = append(f.ports, pt)
	if f.reg != nil {
		pt.observe(f.reg)
	}
	h.SetTransport(pt)
	f.rt.Go(pt.nm+".tx", nil, occam.High, pt.runTx)
	return pt
}

// Port returns port i.
func (f *Fabric) Port(i int) *Port { return f.ports[i] }

// Ports returns the ports in attach order (already deterministic).
func (f *Fabric) Ports() []*Port { return append([]*Port(nil), f.ports...) }

// Route installs VCI vci toward port to. The video flag and open time
// feed the per-port overload controllers' shed ranking (video before
// audio, oldest first). Installing a VCI that is already routed to a
// *different* port is a programming error, exactly as on atm links;
// re-installing the same mapping is an idempotent no-op. The table is
// consulted per message at crossbar time, so an installation takes
// effect between segments without disturbing any other VCI
// (principle 6).
func (f *Fabric) Route(now occam.Time, vci uint32, to *Port, video bool) {
	if old, ok := f.routes[vci]; ok {
		if old.out != to {
			panic(fmt.Sprintf("fabric: %s: VCI %d already routed to %s (conflicting route to %s)",
				f.nm, vci, old.out.nm, to.nm))
		}
		return
	}
	r := &route{out: to, video: video, opened: now}
	f.routes[vci] = r
	if vci < routeTabMax {
		if int(vci) >= len(f.routeTab) {
			tab := make([]*route, vci+1, (vci+1)*2)
			copy(tab, f.routeTab)
			f.routeTab = tab
		}
		f.routeTab[vci] = r
	}
	f.trace.Emit(obs.EvStreamOpen, f.nm, vci, "routed to "+to.nm)
}

// Unroute removes a VCI. Messages already crossing for it are dropped
// at the crossbar ("unrouted", as on a torn-down circuit); every other
// VCI is untouched (principle 6).
func (f *Fabric) Unroute(vci uint32) {
	r, ok := f.routes[vci]
	if !ok {
		return
	}
	delete(f.routes, vci)
	if int(vci) < len(f.routeTab) {
		f.routeTab[vci] = nil
	}
	delete(r.out.shed, vci)
	f.trace.Emit(obs.EvStreamClose, f.nm, vci, "unrouted from "+r.out.nm)
}

// Reroute retargets an existing VCI onto a different port — the
// mid-stream rewiring a distribution-tree repair performs when an
// orphaned subtree is re-parented. Messages already crossing resolve
// the route at crossing end, so the switch applies cleanly between
// messages (principle 6); there is no conflicting-route panic because
// replacing the target is exactly the point. A VCI not currently
// routed is simply installed.
func (f *Fabric) Reroute(now occam.Time, vci uint32, to *Port, video bool) {
	f.Unroute(vci)
	f.Route(now, vci, to, video)
}

// lookup is the per-cell route lookup: a slice index for every VCI the
// dense table covers, the map only for the pathological remainder.
func (f *Fabric) lookup(vci uint32) *route {
	if int(vci) < len(f.routeTab) {
		return f.routeTab[vci]
	}
	if vci < routeTabMax {
		return nil
	}
	return f.routes[vci]
}

// EnableDegradation starts one overload controller per port
// (principle 8: each port adapts to its own conditions; there is no
// fabric-wide coordinator). Each controller watches only its own
// port's egress queue gauge and sheds only streams routed to that
// port, so a congested port degrades without disturbing any other
// (principle 5). Returns the controllers keyed by port name.
func (f *Fabric) EnableDegradation(cfg degrade.Config, reg *obs.Registry) map[string]*degrade.Controller {
	out := make(map[string]*degrade.Controller, len(f.ports))
	for _, pt := range f.ports {
		pcfg := cfg
		pcfg.Ports = []string{pt.nm}
		out[pt.nm] = degrade.New(f.rt, pt, pcfg, reg)
	}
	return out
}

// PortStats is one port's traffic history.
type PortStats struct {
	Forwarded    uint64 // messages delivered to the host
	Bytes        uint64 // payload bytes delivered
	Cells        uint64 // cells transmitted
	IngressDrops uint64 // ingress queue overflow
	EgressDrops  uint64 // egress queue overflow
	Unrouted     uint64 // dropped at the crossbar: no route
	ShedDrops    uint64 // dropped by the port's overload controller
	FaultDrops   uint64
	FaultCorrupt uint64
	FaultDups    uint64
	FaultDelays  uint64
	FaultStalls  uint64
}

// Stats sums every port's counters.
func (f *Fabric) Stats() PortStats {
	var t PortStats
	for _, pt := range f.ports {
		s := pt.Stats()
		t.Forwarded += s.Forwarded
		t.Bytes += s.Bytes
		t.Cells += s.Cells
		t.IngressDrops += s.IngressDrops
		t.EgressDrops += s.EgressDrops
		t.Unrouted += s.Unrouted
		t.ShedDrops += s.ShedDrops
		t.FaultDrops += s.FaultDrops
		t.FaultCorrupt += s.FaultCorrupt
		t.FaultDups += s.FaultDups
		t.FaultDelays += s.FaultDelays
		t.FaultStalls += s.FaultStalls
	}
	return t
}

// Port is one fabric port: the attachment point of one host, with its
// own bounded ingress and egress queues, crossbar timer chain, and
// batching egress transmitter process, plus optional fault hook and
// overload controller.
//
// Queue/engine state is touched from two contexts — attached
// processes (Send, runTx, the degrade controller's gauge reads) and
// crossing-end timer callbacks — which the occam runtime serialises;
// see the occam scheduler-context rules.
type Port struct {
	fab  *Fabric
	id   int
	nm   string
	host *atm.Host

	// Ingress shard: the queue of messages waiting for the crossbar,
	// plus the one message in flight across it. crossTimer fires at the
	// in-flight message's crossing end; the chain re-arms itself while
	// the queue is non-empty.
	inq        []atm.Message
	crossing   atm.Message
	crossBusy  bool
	crossTimer *occam.Timer

	// Egress shard: the bounded cell queue, the train being
	// transmitted, and the transmitter process. txBusy covers the whole
	// train lifecycle (pacing + delivery); txWake fires at train end
	// and raises txEv to hand the sliced train to runTx for delivery.
	egq     []atm.Message
	egCells int
	batch   []atm.Message // current cell train (reused)
	txBusy  bool
	txWake  *occam.Timer
	txEv    *occam.Event

	shed  map[uint32]bool
	fault atm.FaultHook

	// inByVCI counts messages the attached host offered at this port's
	// ingress, per VCI — the per-hop copy accounting: the number of
	// distinct VCIs a box's port carries inbound-to-fabric is exactly
	// how many copies that box fans out, so an interior tree box's
	// bound (≤ K) is checkable hop by hop.
	inByVCI map[uint32]uint64

	// perVCI folds each stream's delivered (corrupt flag, chunk ids,
	// payload bytes) in delivery order — the per-port evidence the
	// isolation experiments compare across runs. The digest is kept per
	// stream because the cross-stream interleave at a port is timing,
	// not data: a busy receiving box legitimately shifts when its own
	// transmissions land elsewhere, without changing any byte of any
	// stream.
	perVCI    map[uint32]*vciDigest
	delivered uint64

	forwarded *obs.Counter
	bytes     *obs.Counter
	cellsTx   *obs.Counter
	inDrops   *obs.Counter
	egDrops   *obs.Counter
	unrouted  *obs.Counter
	shedDrops *obs.Counter
	faultDrop *obs.Counter
	faultCorr *obs.Counter
	faultDup  *obs.Counter
	faultDel  *obs.Counter
	faultStal *obs.Counter
}

// Name returns the port name (the obs "port" label value).
func (pt *Port) Name() string { return pt.nm }

// HostName returns the attached host's name.
func (pt *Port) HostName() string { return pt.host.Name() }

// Stats returns a copy of the port's counters.
func (pt *Port) Stats() PortStats {
	return PortStats{
		Forwarded:    pt.forwarded.Value(),
		Bytes:        pt.bytes.Value(),
		Cells:        pt.cellsTx.Value(),
		IngressDrops: pt.inDrops.Value(),
		EgressDrops:  pt.egDrops.Value(),
		Unrouted:     pt.unrouted.Value(),
		ShedDrops:    pt.shedDrops.Value(),
		FaultDrops:   pt.faultDrop.Value(),
		FaultCorrupt: pt.faultCorr.Value(),
		FaultDups:    pt.faultDup.Value(),
		FaultDelays:  pt.faultDel.Value(),
		FaultStalls:  pt.faultStal.Value(),
	}
}

// DeliveryDigest returns an FNV-1a digest over everything the port has
// delivered, plus the delivery count. Each stream is digested in its
// own delivery order and the per-stream digests are combined in VCI
// order, so the digest pins every delivered byte of every stream while
// staying indifferent to how the streams happened to interleave. Two
// runs in which this port's streams each saw identical traffic produce
// identical digests regardless of what happened on other ports.
func (pt *Port) DeliveryDigest() (digest uint64, delivered uint64) {
	vcis := make([]uint32, 0, len(pt.perVCI))
	for vci := range pt.perVCI {
		vcis = append(vcis, vci)
	}
	sort.Slice(vcis, func(i, j int) bool { return vcis[i] < vcis[j] })
	h := uint64(fnvOffset)
	for _, vci := range vcis {
		d := pt.perVCI[vci]
		h ^= uint64(vci)
		h *= fnvPrime
		h ^= d.digest
		h *= fnvPrime
		h ^= d.count
		h *= fnvPrime
	}
	return h, pt.delivered
}

// IngressCopies returns how many messages the attached host offered
// at this port's ingress, per VCI — the per-hop copy evidence: one
// entry per copy the box fans out, with counts near the stream's
// segment total.
func (pt *Port) IngressCopies() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(pt.inByVCI))
	for vci, n := range pt.inByVCI {
		out[vci] = n
	}
	return out
}

// StreamDigests returns each delivered stream's (digest, count) at
// this port — DeliveryDigest broken out per VCI.
func (pt *Port) StreamDigests() map[uint32][2]uint64 {
	out := make(map[uint32][2]uint64, len(pt.perVCI))
	for vci, d := range pt.perVCI {
		out[vci] = [2]uint64{d.digest, d.count}
	}
	return out
}

// SetFault attaches a fault process to the port's egress (nil
// detaches): every message routed *to* this port consults the hook on
// egress arrival, and the transmitter consults StallUntil before each
// cell train — so an injected fault, like real port trouble, stays on
// its own port.
func (pt *Port) SetFault(h atm.FaultHook) { pt.fault = h }

// observe registers the port's instruments under the obs "port" label.
func (pt *Port) observe(reg *obs.Registry) {
	lb := obs.L("port", pt.nm)
	reg.RegisterCounter("fabric_port_forwarded_total", pt.forwarded, lb)
	reg.RegisterCounter("fabric_port_bytes_total", pt.bytes, lb)
	reg.RegisterCounter("fabric_port_cells_total", pt.cellsTx, lb)
	reg.RegisterCounter("fabric_port_ingress_drops_total", pt.inDrops, lb)
	reg.RegisterCounter("fabric_port_egress_drops_total", pt.egDrops, lb)
	reg.RegisterCounter("fabric_port_unrouted_total", pt.unrouted, lb)
	reg.RegisterCounter("fabric_port_shed_drops_total", pt.shedDrops, lb)
	reg.RegisterCounter("fabric_port_fault_drops_total", pt.faultDrop, lb)
	reg.RegisterCounter("fabric_port_fault_corruptions_total", pt.faultCorr, lb)
	reg.RegisterCounter("fabric_port_fault_duplicates_total", pt.faultDup, lb)
	reg.RegisterCounter("fabric_port_fault_delays_total", pt.faultDel, lb)
	reg.RegisterCounter("fabric_port_fault_stalls_total", pt.faultStal, lb)
	reg.GaugeFunc("fabric_port_ingress_depth", func() float64 { return float64(len(pt.inq)) }, lb)
	reg.GaugeFunc("fabric_port_ingress_limit", func() float64 { return float64(pt.fab.cfg.IngressLimit) }, lb)
	reg.GaugeFunc("fabric_port_queue_depth", func() float64 { return float64(pt.egCells) }, lb)
	reg.GaugeFunc("fabric_port_queue_limit", func() float64 { return float64(pt.fab.cfg.EgressCellLimit) }, lb)
}

// TransportName implements atm.Transport.
func (pt *Port) TransportName() string { return "fabric:" + pt.nm }

// crossDur returns how long m occupies this port's crossbar shard.
func (pt *Port) crossDur(m atm.Message) time.Duration {
	bw := pt.fab.cfg.PortBandwidth * int64(pt.fab.cfg.XbarSpeedup)
	return time.Duration(int64(cells(m.Size)) * cellWire * 8 * int64(time.Second) / bw)
}

// Send implements atm.Transport: ingress admission, run inline in the
// sending host's process. If the crossbar shard is idle (which implies
// the ingress queue is empty) the message starts crossing immediately;
// otherwise it waits in the bounded queue, drop-tail on overflow. The
// sender never blocks on fabric congestion.
func (pt *Port) Send(p *occam.Proc, m atm.Message) error {
	pt.inByVCI[m.VCI]++
	if pt.crossBusy {
		if len(pt.inq) >= pt.fab.cfg.IngressLimit {
			pt.inDrops.Inc()
			pt.fab.trace.EmitAt(p.Now(), obs.EvDrop, pt.nm, m.VCI, "ingress-overflow")
			m.W.Release()
			return nil
		}
		pt.inq = append(pt.inq, m)
		return nil
	}
	pt.crossBusy = true
	pt.crossing = m
	pt.crossTimer.Schedule(p.Now() + occam.Time(pt.crossDur(m)))
	return nil
}

// crossDone is the crossing-end timer callback (scheduler context): it
// routes the message that just finished crossing — the VCI is looked
// up at crossing *end*, so a mid-stream reroute or teardown applies
// per message — hands it to the destination port's egress, and starts
// the next crossing if the ingress queue is non-empty.
func (pt *Port) crossDone(s occam.Sched) {
	m := pt.crossing
	pt.crossing = atm.Message{}
	if r := pt.fab.lookup(m.VCI); r == nil {
		pt.unrouted.Inc()
		pt.fab.trace.EmitAt(s.Now(), obs.EvDrop, pt.nm, m.VCI, "unrouted")
		m.W.Release()
	} else {
		r.out.egArrive(s, m)
	}
	if len(pt.inq) > 0 {
		next := pt.inq[0]
		copy(pt.inq, pt.inq[1:])
		pt.inq[len(pt.inq)-1] = atm.Message{}
		pt.inq = pt.inq[:len(pt.inq)-1]
		pt.crossing = next
		s.Schedule(pt.crossTimer, s.Now()+occam.Time(pt.crossDur(next)))
	} else {
		pt.crossBusy = false
	}
}

// egArrive applies the egress-side admission pipeline to one message
// arriving off the crossbar (scheduler context): the port's shed bar
// first (the overload controller stops a stream before it consumes
// fault RNG or queue space), then the fault hook, then the cell bound.
// The message ends up either queued (possibly twice, for an injected
// duplicate) or released. If the transmitter is idle, the arrival
// starts a new cell train immediately.
func (pt *Port) egArrive(s occam.Sched, m atm.Message) {
	now := s.Now()
	if pt.shed[m.VCI] {
		pt.shedDrops.Inc()
		pt.fab.trace.EmitAt(now, obs.EvDrop, pt.nm, m.VCI, "degrade-shed")
		m.W.Release()
		return
	}
	dup := false
	if pt.fault != nil {
		act := pt.fault.OnMessage(now, m.VCI, m.Size)
		if act.Drop {
			reason := act.Reason
			if reason == "" {
				reason = "injected-loss"
			}
			pt.faultDrop.Inc()
			pt.fab.trace.EmitAt(now, obs.EvFault, pt.nm, m.VCI, reason)
			m.W.Release()
			return
		}
		if act.Corrupt {
			m.Corrupt = true
			pt.faultCorr.Inc()
			pt.fab.trace.EmitAt(now, obs.EvFault, pt.nm, m.VCI, "injected-corruption")
		}
		if act.Delay > 0 {
			m.FaultDelay += act.Delay
			pt.faultDel.Inc()
		}
		dup = act.Duplicate
	}
	n := cells(m.Size)
	if pt.egCells+n > pt.fab.cfg.EgressCellLimit {
		pt.egDrops.Inc()
		pt.fab.trace.EmitAt(now, obs.EvDrop, pt.nm, m.VCI, "egress-overflow")
		m.W.Release()
		return
	}
	pt.egq = append(pt.egq, m)
	pt.egCells += n
	if dup && pt.egCells+n <= pt.fab.cfg.EgressCellLimit {
		// The duplicate is a second full message with its own wire
		// reference, under the same cell bound.
		m.W.Retain(1)
		pt.egq = append(pt.egq, m)
		pt.egCells += n
		pt.faultDup.Inc()
		pt.fab.trace.EmitAt(now, obs.EvFault, pt.nm, m.VCI, "injected-duplicate")
	}
	if !pt.txBusy && len(pt.egq) > 0 {
		// Idle transmitter: this arrival starts a cell train now. Slice
		// it, pace it, and wake runTx at train end to deliver.
		pt.txBusy = true
		pt.slice()
		s.Schedule(pt.txWake, pt.trainEnd(now))
	}
}

// slice cuts the next cell train off the head of the egress queue into
// pt.batch: at least one message, then as many more as fit in
// BatchCells. The batch buffer is reused train to train.
func (pt *Port) slice() {
	pt.batch = pt.batch[:0]
	got := 0
	for len(pt.egq) > 0 {
		n := cells(pt.egq[0].Size)
		if got > 0 && got+n > pt.fab.cfg.BatchCells {
			break
		}
		got += n
		pt.batch = append(pt.batch, pt.egq[0])
		copy(pt.egq, pt.egq[1:])
		pt.egq[len(pt.egq)-1] = atm.Message{}
		pt.egq = pt.egq[:len(pt.egq)-1]
	}
	pt.egCells -= got
}

// trainEnd returns when the train in pt.batch, started at now,
// finishes transmitting: the port stall window (if the fault hook has
// the transmitter wedged, queued cells wait out the outage on this
// port alone), then one line-rate transmission covering the whole
// train, plus propagation and the largest injected per-message delay.
func (pt *Port) trainEnd(now occam.Time) occam.Time {
	cfg := pt.fab.cfg
	if pt.fault != nil {
		if until := pt.fault.StallUntil(now); until > now {
			pt.faultStal.Inc()
			pt.fab.trace.EmitAt(now, obs.EvFault, pt.nm, 0, "port-stall")
			now = until
		}
	}
	var (
		totalCells int
		maxDelay   time.Duration
	)
	for i := range pt.batch {
		totalCells += cells(pt.batch[i].Size)
		if pt.batch[i].FaultDelay > maxDelay {
			maxDelay = pt.batch[i].FaultDelay
		}
	}
	tx := time.Duration(int64(totalCells) * cellWire * 8 * int64(time.Second) / cfg.PortBandwidth)
	return now + occam.Time(tx+cfg.Propagation+maxDelay)
}

// runTx is the port's one process: it delivers finished cell trains to
// the attached host — the only fabric step that may block (host
// backpressure) — and paces follow-on trains while backlog remains.
// It sleeps on txEv whenever the port goes idle; egArrive slices the
// train that wakes it.
func (pt *Port) runTx(p *occam.Proc) {
	for {
		pt.txEv.Wait(p)
		pt.txEv.Clear()
		for {
			for i := range pt.batch {
				m := pt.batch[i]
				pt.forwarded.Inc()
				pt.bytes.Add(uint64(m.Size))
				pt.cellsTx.Add(uint64(cells(m.Size)))
				pt.fold(m)
				pt.host.Deliver(p, m)
				pt.batch[i] = atm.Message{}
			}
			if len(pt.egq) == 0 {
				pt.txBusy = false
				break
			}
			// Backlog: slice the next train at delivery-complete time
			// and sleep out its transmission.
			now := p.Now()
			pt.slice()
			p.SleepUntil(pt.trainEnd(now))
		}
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// vciDigest is one stream's running delivery digest at one port.
type vciDigest struct {
	digest uint64
	count  uint64
}

// fold mixes one delivered message into its stream's digest.
func (pt *Port) fold(m atm.Message) {
	d, ok := pt.perVCI[m.VCI]
	if !ok {
		d = &vciDigest{digest: fnvOffset}
		pt.perVCI[m.VCI] = d
	}
	h := d.digest
	if m.Corrupt {
		h ^= 1
		h *= fnvPrime
	}
	h ^= uint64(m.ChunkIndex)<<16 | uint64(m.ChunkTotal)
	h *= fnvPrime
	for _, b := range m.W.Bytes() {
		h ^= uint64(b)
		h *= fnvPrime
	}
	d.digest = h
	d.count++
	pt.delivered++
}

// --- degrade.Target: per-port overload levers ---

// DegradeName implements degrade.Target.
func (pt *Port) DegradeName() string { return pt.nm }

// DegradeStreams implements degrade.Target: the VCIs currently routed
// to this port, in VCI order for deterministic controller decisions.
// Every fabric stream is incoming from the port's point of view — it
// is traffic about to be delivered to the attached box.
func (pt *Port) DegradeStreams() []degrade.StreamInfo {
	ids := make([]uint32, 0, 8)
	for vci, r := range pt.fab.routes {
		if r.out == pt {
			ids = append(ids, vci)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]degrade.StreamInfo, 0, len(ids))
	for _, vci := range ids {
		r := pt.fab.routes[vci]
		out = append(out, degrade.StreamInfo{
			ID: vci, Video: r.video, Incoming: true, Opened: r.opened,
		})
	}
	return out
}

// DegradeVideoBuffers implements degrade.Target: a port has no
// decoupling buffers; its pressure signal is the egress queue gauge
// named in the controller's Ports config.
func (pt *Port) DegradeVideoBuffers() []string { return nil }

// DegradeAudioBuffers implements degrade.Target. Always empty: port
// congestion is relieved by shedding video (principle 2), so a port
// controller never has audio pressure and never sheds audio.
func (pt *Port) DegradeAudioBuffers() []string { return nil }

// DegradeShed implements degrade.Target: bar the VCI at this port's
// egress. The source box keeps transmitting (it is not this port's to
// command — principle 8 is local adaptation), the crossbar keeps
// switching, and the cells die here, on the congested port alone.
func (pt *Port) DegradeShed(p *occam.Proc, id uint32) { pt.shed[id] = true }

// DegradeRestore implements degrade.Target.
func (pt *Port) DegradeRestore(p *occam.Proc, id uint32) { delete(pt.shed, id) }

// DegradeRepositoryOrder implements degrade.Target.
func (pt *Port) DegradeRepositoryOrder() bool { return false }
