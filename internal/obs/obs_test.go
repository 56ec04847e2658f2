package obs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/occam"
)

// fakeClock is a settable Clock.
type fakeClock struct{ t occam.Time }

func (c *fakeClock) Now() occam.Time { return c.t }

func TestCounterGaugeRegistration(t *testing.T) {
	clk := &fakeClock{}
	r := New(clk)

	c := r.Counter("widgets_total", L("box", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	// Same name+labels yields the same counter.
	if c2 := r.Counter("widgets_total", L("box", "a")); c2 != c {
		t.Fatalf("re-registration returned a different counter")
	}
	// Different labels yield a different one.
	if c3 := r.Counter("widgets_total", L("box", "b")); c3 == c {
		t.Fatalf("different labels returned the same counter")
	}

	g := r.Gauge("depth")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}

	depth := 7
	r.GaugeFunc("live_depth", func() float64 { return float64(depth) })
	var raw uint64 = 9
	r.CounterFunc("raw_total", func() uint64 { return raw })

	clk.t = occam.Time(1e9)
	s := r.Snapshot()
	if s.At != occam.Time(1e9) {
		t.Fatalf("snapshot At = %v, want t+1s", s.At)
	}
	if sm, ok := s.Get("live_depth"); !ok || sm.Value != 7 {
		t.Fatalf("live_depth = %+v ok=%v, want 7", sm, ok)
	}
	if sm, ok := s.Get("raw_total"); !ok || sm.Value != 9 {
		t.Fatalf("raw_total = %+v ok=%v, want 9", sm, ok)
	}
	if got := s.Total("widgets_total"); got != 5 {
		t.Fatalf("family total = %g, want 5", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("unregistered counter does not count")
	}
	g := r.Gauge("g")
	g.Set(2)
	h := r.Histogram("h")
	h.Observe(time.Millisecond)
	r.CounterFunc("cf", func() uint64 { return 0 })
	r.GaugeFunc("gf", func() float64 { return 0 })
	r.RegisterCounter("rc", c)
	if n := len(r.Snapshot().Samples); n != 0 {
		t.Fatalf("nil registry snapshot has %d samples", n)
	}
	r.Tracer().Emit(EvDrop, "nowhere", 0, "nothing")
	if r.Tracer().Total() != 0 {
		t.Fatalf("nil tracer recorded an event")
	}
	if r.Now() != 0 {
		t.Fatalf("nil registry Now != 0")
	}
}

func TestRegisterExistingCounter(t *testing.T) {
	r := New(&fakeClock{})
	c := NewCounter()
	c.Add(3)
	r.RegisterCounter("pre_total", c, L("k", "v"))
	if sm, ok := r.Snapshot().Get("pre_total", L("k", "v")); !ok || sm.Value != 3 {
		t.Fatalf("adopted counter sample = %+v ok=%v, want 3", sm, ok)
	}
	// Idempotent: a second registration keeps the first handle.
	r.RegisterCounter("pre_total", NewCounter(), L("k", "v"))
	c.Inc()
	if sm, _ := r.Snapshot().Get("pre_total", L("k", "v")); sm.Value != 4 {
		t.Fatalf("second registration replaced the counter: %+v", sm)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []time.Duration{500 * time.Microsecond, 5 * time.Millisecond, 50 * time.Millisecond} {
		h.Observe(v)
	}
	counts, sum := h.buckets()
	if h.Count() != 3 || sum != 55.5 {
		t.Fatalf("count=%d sum=%g, want 3/55.5", h.Count(), sum)
	}
	// Default bounds 2, 4, 6, ..., 50: 0.5 ms lands in ≤2, 5 ms in ≤6,
	// 50 ms in ≤50.
	want := make([]uint64, len(DefaultLatencyBucketsMs)+1)
	want[0], want[2], want[8] = 1, 1, 1
	if !slices.Equal(counts, want) {
		t.Fatalf("bucket counts = %v, want %v", counts, want)
	}

	r := New(&fakeClock{})
	rh := r.Histogram("lat_ms", L("box", "a"))
	rh.Observe(5 * time.Millisecond)
	sm, ok := r.Snapshot().Get("lat_ms", L("box", "a"))
	if !ok || sm.Count != 1 || sm.Sum != 5 {
		t.Fatalf("histogram sample = %+v ok=%v", sm, ok)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, d := range []time.Duration{3, 1, 4, 1, 5} {
		h.Observe(d * time.Millisecond)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 5*time.Millisecond {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	if h.Mean() != 2800*time.Microsecond {
		t.Fatalf("mean=%v", h.Mean())
	}
	if h.Max()-h.Min() != 4*time.Millisecond {
		t.Fatalf("jitter=%v", h.Max()-h.Min())
	}
	if h.Distinct() != 4 {
		t.Fatalf("Distinct = %d, want 4 (1 ms seen twice)", h.Distinct())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if p := h.Percentile(0); p != time.Millisecond {
		t.Fatalf("p0=%v", p)
	}
	if p := h.Percentile(100); p != 100*time.Millisecond {
		t.Fatalf("p100=%v", p)
	}
	p50 := h.Percentile(50)
	if p50 < 49*time.Millisecond || p50 > 51*time.Millisecond {
		t.Fatalf("p50=%v", p50)
	}
}

func TestHistogramObserveAfterReadStaysCorrect(t *testing.T) {
	h := NewHistogram()
	h.Observe(5 * time.Millisecond)
	_ = h.Max()
	h.Observe(time.Millisecond)
	if h.Min() != time.Millisecond {
		t.Fatal("sample observed after a read was lost")
	}
}

// TestHistogramMatchesSortedSamples checks the order statistics
// against the definition they reproduce: every sample kept, sorted,
// indexed at the nearest rank int(p/100*(n-1)), mean the
// integer-nanosecond sum over n.
func TestHistogramMatchesSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var all []time.Duration
	var sum time.Duration
	for i := 0; i < 5000; i++ {
		d := time.Duration(8+rng.Intn(40)) * 250 * time.Microsecond
		if i%97 == 0 {
			d += time.Duration(rng.Intn(1000)) // a few odd values
		}
		h.Observe(d)
		all = append(all, d)
		sum += d
	}
	slices.Sort(all)
	if h.Min() != all[0] || h.Max() != all[len(all)-1] || h.Mean() != sum/time.Duration(len(all)) {
		t.Fatalf("min/max/mean = %v/%v/%v, want %v/%v/%v", h.Min(), h.Max(), h.Mean(), all[0], all[len(all)-1], sum/time.Duration(len(all)))
	}
	for _, p := range []float64{0, 1, 10, 25, 50, 75, 90, 99, 99.9, 100} {
		if got, want := h.Percentile(p), all[int(p/100*float64(len(all)-1))]; got != want {
			t.Errorf("p%g = %v, want %v", p, got, want)
		}
	}
}

// TestHistogramRepeatObserveAllocatesNothing pins the property that
// keeps long runs flat: once a value is stored, observing it again
// allocates nothing.
func TestHistogramRepeatObserveAllocatesNothing(t *testing.T) {
	h := NewHistogram()
	vals := []time.Duration{12016 * time.Microsecond, 10 * time.Millisecond, 14 * time.Millisecond}
	for _, v := range vals {
		h.Observe(v)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(vals[i%len(vals)])
		i++
	}); n != 0 {
		t.Fatalf("repeat Observe allocates %v per call", n)
	}
	if h.Distinct() != len(vals) {
		t.Fatalf("Distinct = %d, want %d", h.Distinct(), len(vals))
	}
}

// fixedBuckets is the bucketing the histogram used to do on every
// Observe: a millisecond value searched into the default bounds and
// added to a float sum.
type fixedBuckets struct {
	counts []uint64
	sum    float64
	n      uint64
}

func (f *fixedBuckets) observe(v float64) {
	if f.counts == nil {
		f.counts = make([]uint64, len(DefaultLatencyBucketsMs)+1)
	}
	f.counts[sort.SearchFloat64s(DefaultLatencyBucketsMs, v)]++
	f.sum += v
	f.n++
}

// TestSnapshotMatchesFixedBuckets checks that deriving the exported
// buckets at Snapshot time gives the counts, Count and Sum the
// per-Observe fixed-bucket code gave for the same inputs, bound values
// included (bounds are upper-inclusive).
func TestSnapshotMatchesFixedBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var inputs []time.Duration
	for _, b := range DefaultLatencyBucketsMs {
		ms := time.Duration(b * float64(time.Millisecond))
		inputs = append(inputs, ms, ms+1, ms-1)
	}
	for i := 0; i < 2000; i++ {
		inputs = append(inputs, time.Duration(rng.Intn(4*64))*time.Millisecond/4) // quarter-ms steps up to 64 ms
	}
	inputs = append(inputs, 0, time.Second)

	r := New(&fakeClock{})
	h := r.Histogram("lat_ms")
	var ref fixedBuckets
	for _, d := range inputs {
		h.Observe(d)
		ref.observe(float64(d) / float64(time.Millisecond))
	}
	sm, _ := r.Snapshot().Get("lat_ms")
	if !slices.Equal(sm.Buckets, ref.counts) || sm.Count != ref.n {
		t.Fatalf("buckets %v count %d, fixed-bucket code gave %v count %d", sm.Buckets, sm.Count, ref.counts, ref.n)
	}
	if !slices.Equal(sm.Bounds, DefaultLatencyBucketsMs) {
		t.Fatalf("bounds = %v", sm.Bounds)
	}
	// The float sum of the bound-straddling nanosecond values rounds
	// differently from the exact integer sum; everything else here is
	// a whole number of quarter milliseconds, which floats add exactly.
	if math.Abs(sm.Sum-ref.sum) > 1e-9*ref.sum {
		t.Fatalf("sum = %v, fixed-bucket code gave %v", sm.Sum, ref.sum)
	}
	var exact fixedBuckets
	e := NewHistogram()
	for _, d := range inputs[3*len(DefaultLatencyBucketsMs):] {
		e.Observe(d)
		exact.observe(float64(d) / float64(time.Millisecond))
	}
	if _, sum := e.buckets(); sum != exact.sum {
		t.Fatalf("quarter-ms sum = %v, fixed-bucket code gave %v", sum, exact.sum)
	}
}

func TestDelta(t *testing.T) {
	clk := &fakeClock{}
	r := New(clk)
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h")

	c.Add(5)
	g.Set(1)
	h.Observe(3 * time.Millisecond)
	prev := r.Snapshot()

	clk.t = occam.Time(2e9)
	c.Add(7)
	g.Set(9)
	h.Observe(4 * time.Millisecond)
	cur := r.Snapshot()
	d := cur.Delta(prev)

	if d.Since != prev.At || d.At != occam.Time(2e9) {
		t.Fatalf("delta window = %v..%v", d.Since, d.At)
	}
	if sm, _ := d.Get("c_total"); sm.Value != 7 {
		t.Fatalf("counter delta = %g, want 7", sm.Value)
	}
	if sm, _ := d.Get("g"); sm.Value != 9 {
		t.Fatalf("gauge in delta = %g, want current 9", sm.Value)
	}
	if sm, _ := d.Get("h"); sm.Count != 1 || sm.Sum != 4 {
		t.Fatalf("histogram delta = %+v, want count 1 sum 4", sm)
	}
	// Delta leaves the snapshots it was taken from untouched.
	if sm, _ := cur.Get("h"); sm.Count != 2 {
		t.Fatalf("Delta changed the current snapshot's histogram to %+v", *sm.HistSample)
	}
}

func TestExporters(t *testing.T) {
	clk := &fakeClock{t: occam.Time(1e9)}
	r := New(clk)
	r.Counter("a_total", L("link", "l0")).Add(2)
	r.Gauge("depth").Set(3)
	r.Histogram("lat_ms").Observe(5 * time.Millisecond)

	table := r.Snapshot().Table()
	for _, want := range []string{"snapshot at t+1s", `a_total{link="l0"}`, "counter", "2", "depth", "gauge", "n=1"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}

	prom := r.Snapshot().Prometheus()
	for _, want := range []string{
		"# TYPE a_total counter",
		`a_total{link="l0"} 2`,
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{le="4"} 0`,
		`lat_ms_bucket{le="6"} 1`,
		`lat_ms_bucket{le="+Inf"} 1`,
		"lat_ms_sum 5",
		"lat_ms_count 1",
		"pandora_virtual_time_seconds 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}

func TestTracerRing(t *testing.T) {
	clk := &fakeClock{}
	r := New(clk, WithTraceCapacity(4))
	tr := r.Tracer()
	for i := 0; i < 6; i++ {
		clk.t = occam.Time(i) * occam.Time(occam.Millisecond)
		tr.Emit(EvDrop, "src", uint32(i), "r")
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(ev))
	}
	if ev[0].Stream != 2 || ev[3].Stream != 5 {
		t.Fatalf("ring window = [%d..%d], want [2..5]", ev[0].Stream, ev[3].Stream)
	}
	if tr.Total() != 6 {
		t.Fatalf("total = %d, want 6", tr.Total())
	}
	if !strings.Contains(ev[3].String(), "drop") {
		t.Fatalf("event String lacks kind: %q", ev[3].String())
	}
}

func TestRatio(t *testing.T) {
	r := New(&fakeClock{})
	r.Gauge("depth", L("q", "a")).Set(3)
	r.Gauge("limit", L("q", "a")).Set(4)
	r.Gauge("limit", L("q", "zero")).Set(0)
	r.Gauge("depth", L("q", "zero")).Set(5)
	var nilReg *Registry
	for _, c := range []struct {
		name         string
		depth, limit *Probe
		want         float64
	}{
		{"occupancy", r.Probe("depth", L("q", "a")), r.Probe("limit", L("q", "a")), 0.75},
		{"limit 0", r.Probe("depth", L("q", "zero")), r.Probe("limit", L("q", "zero")), 0},
		{"missing depth", r.Probe("depth", L("q", "none")), r.Probe("limit", L("q", "a")), 0},
		{"missing limit", r.Probe("depth", L("q", "a")), r.Probe("limit", L("q", "none")), 0},
		{"nil probes", nil, nil, 0},
		{"nil depth", nil, r.Probe("limit", L("q", "a")), 0},
		{"nil-registry probes", nilReg.Probe("depth"), nilReg.Probe("limit"), 0},
	} {
		if got := Ratio(c.depth, c.limit); got != c.want {
			t.Errorf("%s: Ratio = %g, want %g", c.name, got, c.want)
		}
	}
}

// TestSnapshotOrderAndCost checks that snapshots list samples in ID
// order, instruments registered after a snapshot included, and that
// a repeat snapshot renders no IDs: it allocates only its sample
// slice.
func TestSnapshotOrderAndCost(t *testing.T) {
	r := New(&fakeClock{})
	for i := 99; i >= 0; i-- {
		r.Counter("c_total", L("link", fmt.Sprint(i)))
	}
	r.Snapshot()
	r.Gauge("a_depth", L("box", "z"))
	s := r.Snapshot()
	if len(s.Samples) != 101 || s.Samples[0].ID() != `a_depth{box="z"}` {
		t.Fatalf("first of %d samples = %s, want the late a_depth", len(s.Samples), s.Samples[0].ID())
	}
	for i := 1; i < len(s.Samples); i++ {
		if s.Samples[i-1].ID() >= s.Samples[i].ID() {
			t.Fatalf("samples out of ID order: %s before %s", s.Samples[i-1].ID(), s.Samples[i].ID())
		}
	}
	if n := testing.AllocsPerRun(10, func() { r.Snapshot() }); n != 1 {
		t.Fatalf("repeat Snapshot allocates %v times, want 1", n)
	}
}

func TestLabelStringQuotesLikeFmt(t *testing.T) {
	labels := []Label{L("link", "a-b.0"), L("q", `say "hi"\`), L("u", "é\t\x00 ")}
	want := "{" + fmt.Sprintf("%s=%q,%s=%q,%s=%q", labels[0].Key, labels[0].Value, labels[1].Key, labels[1].Value, labels[2].Key, labels[2].Value) + "}"
	if got := labelString(labels); got != want {
		t.Fatalf("labelString = %s, want %s", got, want)
	}
	if got := (Sample{Name: "x_total", Labels: labels}).ID(); got != "x_total"+want {
		t.Fatalf("ID = %s", got)
	}
	if got := (Sample{Name: "x_total"}).ID(); got != "x_total" {
		t.Fatalf("unlabelled ID = %s", got)
	}
}
