// Package obs is the unified observability layer: a registry of named
// counters, gauges and histograms stamped with *virtual* time
// (occam.Time), plus a bounded ring-buffer event tracer (see trace.go).
//
// It generalises the paper's per-process drop counters and rate-limited
// host-log reports (§3.8) into one cross-cutting substrate: every
// data-path package (atm links, clawback buffers, the mixer, the
// decoupling buffers, the allocator and the box boards) registers its
// counters here once, and a whole running simulation can be snapshotted,
// diffed and exported at any instant of virtual time.
//
// Design constraints, in order:
//
//   - Hot paths pay one pointer-chase and one integer add. An instrument
//     is a plain struct field registered once; there are no locks and no
//     atomics because the occam scheduler runs exactly one process at a
//     time (package occam's defining property).
//   - Instrumented code must not care whether anyone is watching: every
//     constructor and Emit is safe on a nil *Registry / *Tracer and
//     simply hands back an unregistered (but fully functional)
//     instrument, so unit tests of one package need no registry.
//   - Existing accessor APIs (atm.LinkStats, clawback.Stats,
//     mixer.StreamStats, ...) keep working; they are reconstructed from
//     the registered instruments.
//
// Snapshots can be rendered as a human table (Table) or as
// Prometheus-style text lines (Prometheus).
package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/occam"
)

// Clock supplies virtual time for snapshot and event stamps.
// *occam.Runtime satisfies it.
type Clock interface {
	Now() occam.Time
}

// Label is one key=value dimension of an instrument, e.g.
// {Key: "link", Value: "alice-bob.0"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies an instrument.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "?"
}

// Counter is a monotonically increasing count. The zero value is ready
// to use; an unregistered counter still counts.
type Counter struct {
	v uint64
}

// NewCounter returns an unregistered counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous value. The zero value is ready to use.
type Gauge struct {
	v float64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the value by d (may be negative).
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// DefaultLatencyBucketsMs are the bucket bounds every histogram
// exports, suited to the paper's millisecond-scale latencies (the
// headline mic→speaker figure is 8 ms). Bounds are upper-inclusive;
// one implicit overflow bucket catches the rest.
var DefaultLatencyBucketsMs = []float64{2, 4, 6, 8, 10, 15, 20, 30, 50, 100, 200, 500}

// Histogram records durations exactly: one (value, count) pair per
// distinct value, kept sorted, and an integer-nanosecond sum.
// Virtual-time latencies take few distinct values, so its storage
// grows with those, never with the number of observations. The
// exported bucket counts and millisecond sum are derived only when a
// Snapshot is built.
type Histogram struct {
	bins []bin // ascending by value
	sum  time.Duration
	n    uint64
}

// bin is one distinct observed value and how often it was seen.
type bin struct {
	v time.Duration
	n uint64
}

// NewHistogram returns an unregistered histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample. A value already seen costs a binary
// search and no allocation. The search is written out because
// slices.BinarySearchFunc's comparison callback more than doubled the
// cost of this per-playout call.
func (h *Histogram) Observe(d time.Duration) {
	i, j := 0, len(h.bins)
	for i < j {
		m := int(uint(i+j) >> 1)
		if h.bins[m].v < d {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == len(h.bins) || h.bins[i].v != d {
		h.bins = slices.Insert(h.bins, i, bin{v: d})
	}
	h.bins[i].n++
	h.sum += d
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Distinct returns the number of distinct values stored.
func (h *Histogram) Distinct() int { return len(h.bins) }

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.bins[0].v
}

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.bins[len(h.bins)-1].v
}

// Mean returns the integer-nanosecond average observation (0 if
// empty).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Percentile returns the p'th percentile (0 ≤ p ≤ 100) by the
// nearest-rank method: the observation at sorted index
// int(p/100*(n-1)).
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(max(0, min(int(p/100*float64(h.n-1)), int(h.n)-1)))
	var cum uint64
	for _, b := range h.bins {
		cum += b.n
		if cum > rank {
			return b.v
		}
	}
	return h.Max()
}

// buckets derives the exported DefaultLatencyBucketsMs counts (the
// last element is overflow) and the millisecond sum.
func (h *Histogram) buckets() ([]uint64, float64) {
	counts := make([]uint64, len(DefaultLatencyBucketsMs)+1)
	for _, b := range h.bins {
		counts[sort.SearchFloat64s(DefaultLatencyBucketsMs, float64(b.v)/float64(time.Millisecond))] += b.n
	}
	return counts, float64(h.sum) / float64(time.Millisecond)
}

// entry is one registered instrument.
type entry struct {
	name   string
	labels []Label
	kind   Kind
	id     string // key(name, labels)

	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// Registry holds every registered instrument plus the event tracer.
// All methods are nil-receiver safe: with a nil registry they return
// working, unregistered instruments, so instrumented packages never
// need to branch on "is observability enabled".
type Registry struct {
	clock   Clock
	entries []*entry // in ID order whenever sorted is set
	sorted  bool
	byKey   map[string]*entry
	tracer  *Tracer
}

// Option configures a Registry.
type Option func(*Registry)

// WithTraceCapacity sets the event ring size (default DefaultTraceCap).
func WithTraceCapacity(n int) Option {
	return func(r *Registry) { r.tracer = newTracer(r.clock, n) }
}

// New returns an empty registry stamping snapshots and events with
// clock's virtual time.
func New(clock Clock, opts ...Option) *Registry {
	r := &Registry{
		clock:  clock,
		byKey:  make(map[string]*entry),
		tracer: newTracer(clock, DefaultTraceCap),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Now returns the registry clock's current virtual time (0 with a nil
// registry or clock).
func (r *Registry) Now() occam.Time {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// Tracer returns the event tracer (nil with a nil registry, which is
// itself safe to Emit on).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// key renders an instrument's identity as Sample.ID does, e.g.
// `x_total{link="a-b.0"}`: the registry's lookup key, and the order in
// which snapshots list samples.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var buf [128]byte
	return string(appendLabels(append(buf[:0], name...), labels))
}

// register adds e unless the key already exists, in which case the
// existing entry is returned (registration is idempotent: two callers
// naming the same instrument share it).
func (r *Registry) register(e *entry) *entry {
	k := key(e.name, e.labels)
	if prev, ok := r.byKey[k]; ok {
		if prev.kind != e.kind {
			panic(fmt.Sprintf("obs: %s re-registered as %v, was %v", k, e.kind, prev.kind))
		}
		return prev
	}
	e.id = k
	r.byKey[k] = e
	r.entries = append(r.entries, e)
	r.sorted = false
	return e
}

// Counter returns the counter registered under name+labels, creating
// it if needed. On a nil registry it returns a fresh unregistered
// counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return NewCounter()
	}
	e := r.register(&entry{name: name, labels: labels, kind: KindCounter, counter: NewCounter()})
	if e.counter == nil {
		panic(fmt.Sprintf("obs: %s registered as a func-backed counter", key(name, labels)))
	}
	return e.counter
}

// RegisterCounter registers an existing counter handle (idempotent;
// no-op on a nil registry). Used by packages that create their
// instruments before a registry is attached.
func (r *Registry) RegisterCounter(name string, c *Counter, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&entry{name: name, labels: labels, kind: KindCounter, counter: c})
}

// CounterFunc registers a read-callback counter over an existing plain
// struct field — the cheapest possible bridging for hot-path stats
// that are already maintained elsewhere. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&entry{name: name, labels: labels, kind: KindCounter, counterFn: fn})
}

// Gauge returns the gauge registered under name+labels, creating it if
// needed. On a nil registry it returns a fresh unregistered gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return NewGauge()
	}
	e := r.register(&entry{name: name, labels: labels, kind: KindGauge, gauge: NewGauge()})
	if e.gauge == nil {
		panic(fmt.Sprintf("obs: %s registered as a func-backed gauge", key(name, labels)))
	}
	return e.gauge
}

// GaugeFunc registers a read-callback gauge (e.g. a live queue depth).
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&entry{name: name, labels: labels, kind: KindGauge, gaugeFn: fn})
}

// Histogram returns the histogram registered under name+labels,
// creating it if needed. On a nil registry it returns a fresh
// unregistered histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return NewHistogram()
	}
	e := r.register(&entry{name: name, labels: labels, kind: KindHistogram, hist: NewHistogram()})
	return e.hist
}

// Value reads one registered counter's or gauge's current value
// without building a full Snapshot — cheap enough for control loops
// that poll a handful of instruments every few milliseconds (the
// degrade controller's pressure probes). Func-backed instruments
// invoke their callback. It returns false for an unknown instrument,
// a histogram, or a nil registry.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	if r == nil {
		return 0, false
	}
	e, ok := r.byKey[key(name, labels)]
	if !ok {
		return 0, false
	}
	return e.sampleValue()
}

func (e *entry) sampleValue() (float64, bool) {
	switch e.kind {
	case KindCounter:
		if e.counterFn != nil {
			return float64(e.counterFn()), true
		}
		return float64(e.counter.Value()), true
	case KindGauge:
		if e.gaugeFn != nil {
			return e.gaugeFn(), true
		}
		return e.gauge.Value(), true
	}
	return 0, false
}

// Probe is a pre-keyed Value: the instrument key is built once and the
// registry entry cached on first successful read, so polling it every
// few milliseconds costs no allocation. An instrument registered after
// the probe was made is picked up on the next read (entries are never
// replaced, so the cache cannot go stale). The zero Probe (and any
// probe from a nil registry) always reads false.
type Probe struct {
	r *Registry
	k string
	e *entry
}

// Probe returns a probe for the named counter or gauge.
func (r *Registry) Probe(name string, labels ...Label) *Probe {
	if r == nil {
		return &Probe{}
	}
	return &Probe{r: r, k: key(name, labels)}
}

// Value reads the probed instrument, resolving it if needed. A nil
// probe reads false.
func (p *Probe) Value() (float64, bool) {
	if p == nil {
		return 0, false
	}
	if p.e == nil {
		if p.r == nil {
			return 0, false
		}
		e, ok := p.r.byKey[p.k]
		if !ok {
			return 0, false
		}
		p.e = e
	}
	return p.e.sampleValue()
}

// Ratio reads a queue's occupancy from its depth and limit probes —
// the one sensing primitive the degrade and balancer control loops
// share. A nil or missing probe reads as 0, and a limit ≤ 0 gives 0.
func Ratio(depth, limit *Probe) float64 {
	q, _ := depth.Value()
	lim, _ := limit.Value()
	if lim <= 0 {
		return 0
	}
	return q / lim
}

// Sample is one instrument's state at snapshot time.
type Sample struct {
	Name   string
	Labels []Label
	Kind   Kind

	// Value is the counter count or gauge level.
	Value float64

	// *HistSample is the histogram state: set for KindHistogram, nil
	// otherwise. Behind a pointer so the counters and gauges that make
	// up nearly every snapshot stay small.
	*HistSample
}

// HistSample is a histogram's state in a Sample. Buckets[i] counts
// observations ≤ Bounds[i]; the final extra element is overflow.
type HistSample struct {
	Count   uint64
	Sum     float64
	Bounds  []float64
	Buckets []uint64
}

// labelString renders {k="v",...} or "" without labels.
func labelString(labels []Label) string { return string(appendLabels(nil, labels)) }

// appendLabels appends labelString(labels) to b, quoting values as
// %q does.
func appendLabels(b []byte, labels []Label) []byte {
	for i, l := range labels {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(append(b, l.Key...), '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	return b
}

// ID renders the sample's full identity, e.g. `x_total{link="a-b.0"}`.
func (s Sample) ID() string { return key(s.Name, s.Labels) }

// Snapshot is the state of every registered instrument at one instant
// of virtual time.
type Snapshot struct {
	// At is when the snapshot was taken; Since is non-zero for deltas.
	At, Since occam.Time
	Samples   []Sample
}

// Snapshot reads every instrument. Safe to call whenever no simulation
// process is mid-step (between RunFor calls, or from a control
// process). A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	// Entries stay in ID order between registrations, so a snapshot
	// sorts only after new registrations and never renders an ID.
	if !r.sorted {
		sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].id < r.entries[j].id })
		r.sorted = true
	}
	s := Snapshot{At: r.Now(), Samples: make([]Sample, 0, len(r.entries))}
	for _, e := range r.entries {
		sm := Sample{Name: e.name, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			if e.counterFn != nil {
				sm.Value = float64(e.counterFn())
			} else {
				sm.Value = float64(e.counter.Value())
			}
		case KindGauge:
			if e.gaugeFn != nil {
				sm.Value = e.gaugeFn()
			} else {
				sm.Value = e.gauge.Value()
			}
		case KindHistogram:
			sm.HistSample = &HistSample{Count: e.hist.n, Bounds: DefaultLatencyBucketsMs}
			sm.Buckets, sm.Sum = e.hist.buckets()
		}
		s.Samples = append(s.Samples, sm)
	}
	return s
}

// Get returns the sample with the exact name and labels.
func (s Snapshot) Get(name string, labels ...Label) (Sample, bool) {
	want := key(name, labels)
	for _, sm := range s.Samples {
		if key(sm.Name, sm.Labels) == want {
			return sm, true
		}
	}
	return Sample{}, false
}

// Family returns every sample of the named family (all label sets).
func (s Snapshot) Family(name string) []Sample {
	var out []Sample
	for _, sm := range s.Samples {
		if sm.Name == name {
			out = append(out, sm)
		}
	}
	return out
}

// Total sums a family's counter/gauge values across label sets.
func (s Snapshot) Total(name string) float64 {
	var sum float64
	for _, sm := range s.Family(name) {
		sum += sm.Value
	}
	return sum
}

// Delta returns a snapshot whose counters and histogram counts are the
// increase since prev (missing-in-prev samples keep their full value);
// gauges keep their current level. Since is set to prev.At.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	prevBy := make(map[string]Sample, len(prev.Samples))
	for _, sm := range prev.Samples {
		prevBy[key(sm.Name, sm.Labels)] = sm
	}
	d := Snapshot{At: s.At, Since: prev.At, Samples: make([]Sample, 0, len(s.Samples))}
	for _, sm := range s.Samples {
		p, ok := prevBy[key(sm.Name, sm.Labels)]
		if ok {
			switch sm.Kind {
			case KindCounter:
				sm.Value -= p.Value
			case KindHistogram:
				h := *sm.HistSample // the current snapshot keeps its own
				h.Count -= p.Count
				h.Sum -= p.Sum
				h.Buckets = append([]uint64(nil), h.Buckets...)
				for i := range h.Buckets {
					if i < len(p.Buckets) {
						h.Buckets[i] -= p.Buckets[i]
					}
				}
				sm.HistSample = &h
			}
		}
		d.Samples = append(d.Samples, sm)
	}
	return d
}

// Table renders the snapshot as a human-readable aligned table.
func (s Snapshot) Table() string {
	var b strings.Builder
	if s.Since != 0 {
		fmt.Fprintf(&b, "# delta %v .. %v\n", s.Since, s.At)
	} else {
		fmt.Fprintf(&b, "# snapshot at %v\n", s.At)
	}
	width := 0
	for _, sm := range s.Samples {
		if n := len(sm.ID()); n > width {
			width = n
		}
	}
	for _, sm := range s.Samples {
		switch sm.Kind {
		case KindHistogram:
			fmt.Fprintf(&b, "%-*s  %-9s n=%d sum=%.2f mean=%.2f\n",
				width, sm.ID(), sm.Kind, sm.Count, sm.Sum, safeMean(sm.Sum, sm.Count))
		case KindGauge:
			fmt.Fprintf(&b, "%-*s  %-9s %g\n", width, sm.ID(), sm.Kind, sm.Value)
		default:
			fmt.Fprintf(&b, "%-*s  %-9s %.0f\n", width, sm.ID(), sm.Kind, sm.Value)
		}
	}
	return b.String()
}

func safeMean(sum float64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Prometheus renders the snapshot in the Prometheus text exposition
// style (TYPE comments plus one line per sample; histograms expand to
// cumulative _bucket/_sum/_count lines). Virtual time is exported as
// the pandora_virtual_time_seconds gauge rather than per-line
// timestamps, which scrapers would misread as wall time.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE pandora_virtual_time_seconds gauge\n")
	fmt.Fprintf(&b, "pandora_virtual_time_seconds %g\n", s.At.Seconds())
	lastName := ""
	for _, sm := range s.Samples {
		if sm.Name != lastName {
			fmt.Fprintf(&b, "# TYPE %s %s\n", sm.Name, sm.Kind)
			lastName = sm.Name
		}
		switch sm.Kind {
		case KindHistogram:
			var cum uint64
			for i, bound := range sm.Bounds {
				cum += sm.Buckets[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", sm.Name, leLabel(sm.Labels, fmt.Sprintf("%g", bound)), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", sm.Name, leLabel(sm.Labels, "+Inf"), sm.Count)
			fmt.Fprintf(&b, "%s_sum%s %g\n", sm.Name, labelString(sm.Labels), sm.Sum)
			fmt.Fprintf(&b, "%s_count%s %d\n", sm.Name, labelString(sm.Labels), sm.Count)
		default:
			fmt.Fprintf(&b, "%s%s %g\n", sm.Name, labelString(sm.Labels), sm.Value)
		}
	}
	return b.String()
}

func leLabel(labels []Label, le string) string {
	all := append(append([]Label(nil), labels...), L("le", le))
	return labelString(all)
}
