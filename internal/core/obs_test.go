package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/box"
	"repro/internal/obs"
	"repro/internal/occam"
	"repro/internal/workload"
)

// TestObservabilityEndToEnd runs the quickstart topology and checks
// that every layer of the system reported into the shared registry:
// the network, the jitter buffers, the mixer, the decoupling buffers,
// the segment allocator and the box boards all show activity.
func TestObservabilityEndToEnd(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "alice", Mic: workload.NewSpeech(1, 12000),
		Features: box.Features{JitterCorrection: true}})
	s.AddBox(box.Config{Name: "bob", Mic: workload.NewSpeech(2, 12000),
		Features: box.Features{JitterCorrection: true}})
	s.Connect("alice", "bob", fastLink())
	var ab, ba *Stream
	s.Control(func(p *occam.Proc) { ab, ba = s.AudioCall(p, "alice", "bob") })
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	snap := s.Obs.Snapshot()
	if snap.At != occam.Time(2*time.Second) {
		t.Fatalf("snapshot at %v", snap.At)
	}

	// Each counter family must exist and have accumulated real
	// traffic: a missed wiring point shows up as a zero total here.
	for _, family := range []string{
		"atm_link_forwarded_total",
		"atm_link_bytes_total",
		"clawback_pushed_total",
		"clawback_accepted_total",
		"clawback_popped_total",
		"mixer_segments_total",
		"mixer_blocks_total",
		"mixer_ticks_total",
		"decouple_pushed_total",
		"decouple_popped_total",
		"allocator_grants_total",
		"switch_switched_total",
		"audio_ticks_total",
		"audio_mic_blocks_total",
		"audio_mic_segments_total",
	} {
		if len(snap.Family(family)) == 0 {
			t.Errorf("family %s not registered", family)
			continue
		}
		if snap.Total(family) == 0 {
			t.Errorf("family %s registered but never incremented", family)
		}
	}

	// Per-instance checks: both directions of the call show up with
	// their own labels.
	if _, ok := snap.Get("atm_link_forwarded_total", obs.L("link", "alice-bob.0")); !ok {
		t.Error("no per-link counter for alice-bob.0")
	}
	if sam, ok := snap.Get("mixer_segments_total",
		obs.L("box", "bob"), obs.L("stream", "1001")); !ok || sam.Value < 200 {
		t.Errorf("bob's mixer stream counter: %+v (ok=%v)", sam, ok)
	}

	// Each speaker's per-stream playout latency histogram observed
	// its stream, and is the one the box's accessor returns.
	for _, in := range []struct {
		name string
		st   *Stream
	}{{"alice", ba}, {"bob", ab}} {
		vci := in.st.VCIs[in.name]
		sam, ok := snap.Get("audio_playout_latency_ms", obs.L("box", in.name), obs.L("stream", fmt.Sprint(vci)))
		if !ok || sam.Count == 0 {
			t.Errorf("%s: playout histogram empty", in.name)
		} else if mean := sam.Sum / float64(sam.Count); mean < 2 || mean > 50 {
			t.Errorf("%s: playout mean %.2fms implausible", in.name, mean)
		} else if n := s.Box(in.name).PlayoutLatency(vci).Count(); n != sam.Count {
			t.Errorf("%s: PlayoutLatency counts %d, registry %d", in.name, n, sam.Count)
		}
	}

	// Registry counters agree with the legacy accessors they back.
	st := s.Path("alice", "bob")[0].Stats()
	if sam, _ := snap.Get("atm_link_forwarded_total", obs.L("link", "alice-bob.0")); uint64(sam.Value) != st.Forwarded {
		t.Errorf("link stats %d diverge from registry %v", st.Forwarded, sam.Value)
	}
	m := s.Box("bob").Mixer().Stats(ab.VCIs["bob"])
	if sam, _ := snap.Get("mixer_segments_total",
		obs.L("box", "bob"), obs.L("stream", "1001")); uint64(sam.Value) != m.Segments {
		t.Errorf("mixer stats %d diverge from registry %v", m.Segments, sam.Value)
	}

	// Stream lifecycle landed in the trace.
	var opens int
	for _, e := range s.Obs.Tracer().Events() {
		if e.Kind == obs.EvStreamOpen {
			opens++
		}
	}
	if opens < 4 { // 2 circuits + 2 mics at least
		t.Errorf("only %d stream-open events traced", opens)
	}

	// Both exporters include the active families.
	table, promText := snap.Table(), snap.Prometheus()
	for _, want := range []string{"atm_link_forwarded_total", "mixer_segments_total"} {
		if !strings.Contains(table, want) {
			t.Errorf("table export missing %s", want)
		}
		if !strings.Contains(promText, "# TYPE "+want+" counter") {
			t.Errorf("prometheus export missing TYPE line for %s", want)
		}
	}
}

// TestObservabilityDelta checks that interval deltas work over a live
// system: the second second of a call forwards roughly as many
// segments as the first, and the delta sees only that interval.
func TestObservabilityDelta(t *testing.T) {
	s := NewSystem()
	defer s.Shutdown()
	s.AddBox(box.Config{Name: "a", Mic: workload.NewTone(400, 10000)})
	s.AddBox(box.Config{Name: "b", Mic: workload.NewTone(500, 10000)})
	s.Connect("a", "b", fastLink())
	s.Control(func(p *occam.Proc) { s.AudioCall(p, "a", "b") })
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	first := s.Obs.Snapshot()
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	delta := s.Obs.Snapshot().Delta(first)
	if delta.Since != first.At {
		t.Fatalf("delta Since = %v", delta.Since)
	}
	total, interval := s.Obs.Snapshot().Total("atm_link_forwarded_total"),
		delta.Total("atm_link_forwarded_total")
	if interval <= 0 || interval >= total {
		t.Fatalf("interval forwarded %v of %v total", interval, total)
	}
	// Steady state: the two halves are within 20% of each other.
	if ratio := interval / (total - interval); ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("second-second rate ratio %.2f", ratio)
	}
}
