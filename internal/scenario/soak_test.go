package scenario

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// soakFlat is the soak suite's system (scenarios/soak.scn) with
// nothing closed: a three-way conference with jitter correction plus
// one fractional-rate video stream, running for the whole test.
const soakFlat = `
scenario soak-flat
seed 3
duration 60s

box a mic=speech:1:12000 jitter camera=128x64
box b mic=speech:2:12000 jitter
box c mic=speech:3:12000 jitter

link a b bw=100M
link a c bw=100M
link b c bw=100M

degrade shed=150ms hold=800ms

at 0s conference a b c as conf
at 0s video a -> b rect=0,0,128,64 rate=1/5 as vid
`

// soakState is what a run keeps that could grow with its length.
type soakState struct {
	instruments int
	distinct    map[string]int // latency histogram → distinct values stored
	heap        uint64         // HeapAlloc after a full GC
}

func measureSoak(t *testing.T, r *Runner) soakState {
	snap := r.Sys.Obs.Snapshot()
	st := soakState{instruments: len(snap.Samples), distinct: make(map[string]int)}
	for _, sm := range snap.Family("audio_playout_latency_ms") {
		stream, err := strconv.ParseUint(sm.Labels[1].Value, 10, 32)
		if err != nil {
			t.Fatal(err)
		}
		st.distinct[sm.ID()] = r.Sys.Box(sm.Labels[0].Value).PlayoutLatency(uint32(stream)).Distinct()
	}
	for _, name := range r.Sys.BoxNames() {
		st.distinct["display_frame_latency_ms "+name] = r.Sys.Box(name).DisplayStats().FrameLat.Distinct()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.heap = ms.HeapAlloc
	return st
}

// TestSoakStaysFlat runs the soak system to 20 s and then on to 60 s
// of virtual time and checks that nothing it keeps grows with the
// length of the run: the registry holds the same instruments, every
// latency histogram stores the same number of distinct values, and the
// live heap grows by less than 128 KB. An instrument that kept every
// sample would add 6 streams × 500 blocks/s × 8 B ≈ 1 MB over the 40 s.
func TestSoakStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("60 s virtual soak")
	}
	sc, err := Parse(soakFlat)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	r.Start(nil)
	defer r.Close()

	if err := r.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	at20 := measureSoak(t, r)
	if err := r.RunFor(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	at60 := measureSoak(t, r)

	if at60.instruments != at20.instruments {
		t.Errorf("instruments: %d at 20 s, %d at 60 s", at20.instruments, at60.instruments)
	}
	if n := len(at60.distinct); n != 6+3 {
		t.Errorf("%d latency histograms, want 6 playout + 3 display", n)
	}
	for id, n := range at60.distinct {
		if strings.HasPrefix(id, "audio_playout") && n == 0 {
			t.Errorf("%s: nothing played", id)
		}
		if n != at20.distinct[id] {
			t.Errorf("%s: %d distinct values at 20 s, %d at 60 s", id, at20.distinct[id], n)
		}
	}
	if grew := int64(at60.heap) - int64(at20.heap); grew >= 128<<10 {
		t.Errorf("live heap grew %d B from 20 s to 60 s (%d → %d)", grew, at20.heap, at60.heap)
	} else {
		t.Logf("live heap %d → %d B (%+d)", at20.heap, at60.heap, grew)
	}
}
