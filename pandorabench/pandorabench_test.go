package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/scenario"
)

// The committed specs under specs/ are the default-seed workloads, so
// that pandora-sim -scenario can replay any of them by hand.
func TestCommittedSpecsMatchGenerators(t *testing.T) {
	for _, name := range workloadNames {
		want, err := os.ReadFile(filepath.Join("specs", name+".scn"))
		if err != nil {
			t.Fatal(err)
		}
		if got := generators[name](1); got != string(want) {
			t.Errorf("specs/%s.scn differs from the seed-1 generator output; regenerate with --emit", name)
		}
	}
}

func TestSpecsRoundTrip(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []uint64{1, 2, 7, 1 << 40} {
			a, err := scenario.Parse(generators[name](seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			b, err := scenario.Parse(a.Format())
			if err != nil {
				t.Fatalf("%s seed %d: formatted spec: %v", name, seed, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: Parse → Format → Parse changed the spec", name, seed)
			}
			if generators[name](seed) != generators[name](seed) {
				t.Errorf("%s seed %d: generator is not deterministic", name, seed)
			}
		}
	}
}

// BENCHMARK.json at the repository root declares the metrics this
// command prints; the two must name the same metrics in the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the tables %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), tables %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eDefs)
	check("per_layer", b.PerLayer, layerDefs)
	for _, w := range b.Workloads {
		if _, ok := generators[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no generator", w.Name)
		}
	}
}

// A real CPU profile of this process parses, and its shares cover all
// sampled time.
func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	p, err := loadProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range p.shares() {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 || len(p.top(3)) == 0 {
		t.Errorf("shares sum to %g with top %v (x=%g)", sum, p.top(3), x)
	}
}

func TestBinOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/occam.(*Runtime).park"}, "cpu.occam_pct"},
		{[]string{"runtime.futex", "repro/internal/occam.(*Runtime).park"}, "cpu.goruntime_pct"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "cpu.gc_pct"},
		{[]string{"container/heap.down", "repro/internal/occam.(*Runtime).advanceClock"}, "cpu.occam_pct"},
		{[]string{"repro/internal/video.(*Codec).Decode"}, "cpu.codec_pct"},
		{[]string{"sort.Strings", "main.main"}, "cpu.other_pct"},
	} {
		if got := binOf(c.stack); got != c.want {
			t.Errorf("binOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseNodeOutput(t *testing.T) {
	out := `n00: 2s conference with 1 peers on 127.0.0.1:7000
  mic: 499 segments sent on VCI 2000 (499 datagram sends, 0 unrouted)
  udp: 499 datagrams in 200 sendmmsg batches (2.5 per syscall)
  udp: 1 batches lost to socket errors
  VCI 2001 (n01): 496 segments, 1 lost, 2 concealed, 3 silence insertions, playout mean 17.5ms
`
	r, err := parseNodeOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	want := nodeReport{sent: 499, datagrams: 499, batches: 200, sendErrs: 1, received: 496, lost: 1, silence: 3, playoutMS: 17.5}
	if r != want {
		t.Errorf("got %+v, want %+v", r, want)
	}
	if _, err := parseNodeOutput("pandora-node: listen: address in use"); err == nil {
		t.Error("unrecognised output parsed without error")
	}
}
