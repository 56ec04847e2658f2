package experiment

import (
	"fmt"
	"time"

	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/workload"
)

// E1 reproduces the §4.2 mixing-capacity claim: "The T425 transputer
// used on the audio board can mix five audio streams in the
// straightforward case, but only three if we have jitter correction,
// muting, an outgoing stream and the interface code running at the
// same time."
func E1() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Audio board mixing capacity",
		Paper:  "5 streams plain; 3 with jitter correction + muting + outgoing + interface (§4.2)",
		Header: []string{"config", "streams", "late ticks", "verdict"},
	}
	capacity := func(loaded bool) (last int) {
		for n := 1; n <= 8; n++ {
			late := e1LateFraction(n, loaded)
			name := "plain"
			if loaded {
				name = "loaded"
			}
			verdict := "keeps up"
			if late > 0.01 {
				verdict = "OVERLOADED"
			}
			t.Add(name, fmt.Sprintf("%d", n), fmt.Sprintf("%.1f%%", late*100), verdict)
			if late <= 0.01 {
				last = n
			} else {
				break
			}
		}
		return last
	}
	plain := capacity(false)
	loaded := capacity(true)
	t.Remark("measured capacity: %d plain (paper: 5), %d loaded (paper: 3)", plain, loaded)
	return t
}

func e1LateFraction(n int, loaded bool) float64 {
	extras, events := "", ""
	if loaded {
		// The outgoing stream of the §4.2 loaded case rides on netsend.
		extras = " mic=tone:300:8000 jitter muting interface"
		events = "at 0s netsend dst -> sink stream=1 vci=2000\n"
	}
	r := runScenario(fmt.Sprintf(`
scenario e1
duration 2s
box dst%s
box sink
link dst sink bw=100M
feed dst n=%d base=100
%s`, extras, n, events))
	defer r.Close()
	st := r.Sys.Box("dst").AudioStats()
	if st.TicksRun == 0 {
		return 1
	}
	return float64(st.LateTicks) / float64(st.TicksRun+st.LateTicks)
}

// E2 reproduces the link-capacity claim: "The 20Mbit/s link to the
// server transputer is not a limiting factor; it would be capable of
// taking 100 audio streams if we could process them."
func E2() *Table {
	t := &Table{
		ID:     "E2",
		Title:  "20 Mbit/s server link audio capacity",
		Paper:  "capable of taking 100 audio streams (§4.2)",
		Header: []string{"streams", "offered", "delivered", "link util", "keeps up"},
	}
	for _, n := range []int{25, 50, 100, 150} {
		offered, delivered, util := e2LinkRun(n)
		ok := "yes"
		if delivered < offered {
			ok = "NO"
		}
		t.Add(fmt.Sprintf("%d", n), fmt.Sprintf("%d", offered),
			fmt.Sprintf("%d", delivered), fmt.Sprintf("%.0f%%", util*100), ok)
	}
	t.Remark("one 4ms audio segment is %d bytes on the link; capacity ≈ %d streams",
		segment.AudioHeaderSize+32+segment.StreamNumberSize,
		20_000_000*4/((segment.AudioHeaderSize+32+segment.StreamNumberSize)*8*1000))
	return t
}

func e2LinkRun(n int) (offered, delivered int, utilisation float64) {
	rt := occam.NewRuntime()
	defer rt.Shutdown()
	link := occam.NewLink[audioSegMsg](rt, "a2s", 20_000_000)
	const rounds = 250 // 1 s of 4 ms segments
	rt.Go("tx", nil, occam.Low, func(p *occam.Proc) {
		tone := workload.NewTone(400, 8000)
		pool := segment.NewWirePool()
		var (
			aseg  segment.Audio
			adata = make([]byte, 2*segment.BlockSamples)
		)
		for tick := 0; tick < rounds; tick++ {
			p.SleepUntil(occam.Time(int64(tick) * int64(4*time.Millisecond)))
			for i := 0; i < n; i++ {
				tone.FillBlock(adata[:segment.BlockSamples])
				tone.FillBlock(adata[segment.BlockSamples:])
				w := pool.Encode(aseg.Reset(uint32(tick), p.Now(), adata))
				link.Send(p, audioSegMsg{uint32(i), w}, w.Len()+segment.StreamNumberSize)
			}
		}
	})
	got := 0
	rt.Go("rx", nil, occam.High, func(p *occam.Proc) {
		for {
			msg := link.Recv(p)
			msg.W.Release()
			got++
		}
	})
	// Allow one second plus slack: a backlogged link won't finish.
	if err := rt.RunUntil(occam.Time(1020 * time.Millisecond)); err != nil {
		panic(err)
	}
	util := float64(link.BytesSent()*8) / (20_000_000 * 1.02)
	return rounds * n, got, util
}

type audioSegMsg struct {
	Stream uint32
	W      segment.Wire
}

// E3 reproduces the best one-way latency: "the best one-way trip time
// from microphone input of one box to speaker output of another box
// over the network was 8ms. 4ms of this can be accounted for in the
// buffering to the codec, and 2ms in the buffering from the codec."
func E3() *Table {
	t := &Table{
		ID:     "E3",
		Title:  "One-way mic→speaker latency",
		Paper:  "best 8 ms (4 ms to-codec buffering + 2 ms from-codec) (§4.2)",
		Header: []string{"metric", "measured", "paper"},
	}
	r := runScenario(`
scenario e3
duration 5s
box a mic=tone:400:10000
box b
link a b bw=100M prop=50us
at 0s audio a -> b as main
`)
	defer r.Close()
	st := r.Streams["main"]
	lat := r.Sys.Box("b").PlayoutLatency(st.VCIs["b"])
	t.Add("best", fmt.Sprintf("%.2fms", float64(lat.Min())/1e6), "8ms")
	t.Add("mean", fmt.Sprintf("%.2fms", float64(lat.Mean())/1e6), "-")
	t.Add("p99", fmt.Sprintf("%.2fms", float64(lat.Percentile(99))/1e6), "-")
	t.Remark("segment fill (up to 4ms) + link/switch + network + clawback + 2ms codec output fifo")
	return t
}

// E4 reproduces the video-induced audio jitter: "Thus video segments
// can hold up following audio segments, introducing up to 20ms of
// jitter in a stream" — and A4, the interleaved-transmission fix the
// paper did not implement.
func E4() *Table {
	t := &Table{
		ID:     "E4/A4",
		Title:  "Audio jitter from non-interleaved video segments",
		Paper:  "video can hold up audio, adding up to 20 ms of jitter (§4.2)",
		Header: []string{"config", "audio jitter", "mean latency"},
	}
	for _, mode := range []struct {
		name       string
		video      bool
		interleave bool
	}{
		{"audio only", false, false},
		{"audio + video (non-interleaved)", true, false},
		{"audio + video (A4: interleaved)", true, true},
	} {
		jit, mean := e4Run(mode.video, mode.interleave)
		t.Add(mode.name, fmt.Sprintf("%.2fms", float64(jit)/1e6), fmt.Sprintf("%.2fms", float64(mean)/1e6))
	}
	return t
}

func e4Run(withVideo, interleave bool) (jitter, mean time.Duration) {
	flags, vid := "", ""
	if interleave {
		flags = " interleave"
	}
	if withVideo {
		// segs=1: one big segment per frame, maximum hold-up.
		vid = "at 0s video a -> b rect=0,0,256,128 rate=1/5 segs=1\n"
	}
	// netif=7M: a slow enough interface that one video segment ≈ 15-20 ms.
	r := runScenario(fmt.Sprintf(`
scenario e4
duration 4s
box a mic=tone:400:10000 camera=256x128 netif=7M%s
box b camera=256x128
link a b bw=100M
at 0s audio a -> b as main
%s`, flags, vid))
	defer r.Close()
	lat := r.Sys.Box("b").PlayoutLatency(r.Streams["main"].VCIs["b"])
	return lat.Max() - lat.Min(), lat.Mean()
}

// E17 reproduces the context-switch claim: "The context switching
// rate is probably around 5kHz, and is not a problem for the
// transputer" (switches cost <1 µs, §3.1).
func E17() *Table {
	t := &Table{
		ID:     "E17",
		Title:  "Context switch rate during one audio call",
		Paper:  "≈5 kHz context switches; <1 µs each is negligible (§4.2, §3.1)",
		Header: []string{"metric", "value"},
	}
	perSec := float64(e17Switches()) / e17Seconds
	t.Add("switches/second (whole 2-box system)", fmt.Sprintf("%.0f", perSec))
	t.Add("switch budget at 1µs each", fmt.Sprintf("%.2f%% of one CPU", perSec*1e-6*100))
	return t
}

// e17Seconds is the virtual length of E17's measured call.
const e17Seconds = 2

// e17Switches runs E17's two-box audio call and returns the context
// switches the whole system made in its first e17Seconds of virtual
// time. The count is deterministic.
func e17Switches() uint64 {
	r := startScenario(`
scenario e17
duration 2s
box a mic=tone:400:10000
box b
link a b bw=100M
at 0s call a b
`, nil)
	defer r.Close()
	before := r.Sys.RT.Switches()
	if err := r.RunFor(e17Seconds * time.Second); err != nil {
		panic(err)
	}
	return r.Sys.RT.Switches() - before
}

// E18 sweeps blocks-per-segment (§3.2): "We usually run with 2 blocks
// per segment (principle 7), but can alter this dynamically...
// (perhaps using 12 blocks = 24ms) or if we want a particularly low
// latency (1 block = 2ms)."
func E18() *Table {
	t := &Table{
		ID:     "E18",
		Title:  "Segment size vs latency and header overhead",
		Paper:  "1 block = lowest latency; 2 blocks usual; 12 blocks = 24 ms batching (§3.2)",
		Header: []string{"blocks/seg", "span", "best latency", "mean latency", "header overhead"},
	}
	for _, n := range []int{1, 2, 6, 12} {
		best, mean := e18Run(n)
		overhead := float64(segment.AudioHeaderSize) / float64(segment.AudioHeaderSize+n*segment.BlockSamples)
		t.Add(fmt.Sprintf("%d", n),
			(time.Duration(n) * segment.BlockDuration).String(),
			fmt.Sprintf("%.2fms", float64(best)/1e6),
			fmt.Sprintf("%.2fms", float64(mean)/1e6),
			fmt.Sprintf("%.0f%%", overhead*100))
	}
	return t
}

func e18Run(blocksPerSeg int) (best, mean time.Duration) {
	r := runScenario(fmt.Sprintf(`
scenario e18
duration 3s
box a mic=tone:400:10000 blocks=%d
box b
link a b bw=100M
at 0s audio a -> b as main
`, blocksPerSeg))
	defer r.Close()
	lat := r.Sys.Box("b").PlayoutLatency(r.Streams["main"].VCIs["b"])
	return lat.Min(), lat.Mean()
}

// E9 reproduces the §3.8 loss-audibility ladder by sweeping network
// loss rates and scoring the §3.8 event classes.
func E9() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Loss concealment quality vs loss rate",
		Paper:  "occasional 2ms drops rarely noticeable; repeated drops 'gravelly'; frequent replays 'garbled' (§3.8)",
		Header: []string{"loss rate", "lost segs", "concealed", "silences", "quality"},
	}
	for _, loss := range []float64{0, 0.001, 0.01, 0.08} {
		st := e9Run(loss)
		bad := st.concealed + st.silence
		rate := float64(bad) / float64(st.blocks+1)
		verdict := "clean"
		switch {
		case rate == 0 && st.lost == 0:
			verdict = "clean"
		case rate < 0.01:
			verdict = "occasional"
		case rate < 0.10:
			verdict = "gravelly"
		default:
			verdict = "garbled"
		}
		t.Add(fmt.Sprintf("%.1f%%", loss*100),
			fmt.Sprintf("%d", st.lost), fmt.Sprintf("%d", st.concealed),
			fmt.Sprintf("%d", st.silence), verdict)
	}
	return t
}

type e9Stats struct {
	blocks, lost, concealed, silence uint64
}

func e9Run(loss float64) e9Stats {
	r := runScenario(fmt.Sprintf(`
scenario e9
duration 10s
box a mic=tone:400:10000
box b
link a b bw=100M loss=%g lseed=42
at 0s audio a -> b as main
`, loss))
	defer r.Close()
	st := r.Streams["main"]
	m := r.Sys.Box("b").Mixer().Stats(st.VCIs["b"])
	return e9Stats{
		blocks:    m.Blocks,
		lost:      m.LostSegments,
		concealed: m.Concealed,
		silence:   m.Clawback.SilenceInserted,
	}
}
