package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/segment"
)

// sliceLen is the fixed virtual-time step of every RunFor call the
// benchmark makes; the slice metrics are host time per step.
const sliceLen = 50 * time.Millisecond

// counterFamilies are the obs counter families a rep records. Their
// totals feed the per-layer metrics and, with the switch count and the
// delivery digest, the determinism check across reps.
var counterFamilies = []string{
	"allocator_grants_total", "allocator_starvations_total",
	"atm_link_forwarded_total", "atm_link_loss_drops_total", "atm_link_queue_drops_total", "atm_link_fault_drops_total",
	"audio_mic_segments_total",
	"balancer_migrations_total", "balancer_rejected_total", "balancer_admitted_total",
	"clawback_pushed_total", "clawback_popped_total", "clawback_silence_total",
	"clawback_claw_drops_total", "clawback_limit_drops_total", "clawback_pool_drops_total", "clawback_fault_drops_total",
	"decouple_pushed_total", "decouple_refused_total",
	"degrade_ticks_total", "degrade_shed_total",
	"display_segments_total",
	"fabric_port_forwarded_total", "fabric_port_cells_total",
	"fabric_port_ingress_drops_total", "fabric_port_egress_drops_total", "fabric_port_shed_drops_total",
	"fabric_port_fault_drops_total", "fabric_port_unrouted_total",
	"mixer_segments_total", "mixer_blocks_total", "mixer_lost_segments_total", "mixer_concealed_total", "mixer_ticks_total",
	"switch_switched_total", "switch_full_drops_total", "switch_age_drops_total", "switch_shed_drops_total", "switch_noroute_total",
	"tree_repairs_total",
}

// familyTotals sums each recorded counter family over its label sets.
func familyTotals(s obs.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(counterFamilies))
	for _, name := range counterFamilies {
		out[name] = 0
	}
	for _, sm := range s.Samples {
		if _, ok := out[sm.Name]; ok {
			out[sm.Name] += sm.Value
		}
	}
	return out
}

// stamp is one instant on both host clocks: wall time and the CPU time
// (user+sys, all threads) this process has used.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID. Unlike
// getrusage, it includes the running threads' current time slices, so
// it resolves intervals shorter than a scheduler tick.
const clockProcessCPUTimeID = 2

// processCPU reads CLOCK_PROCESS_CPUTIME_ID.
func processCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// now reads both clocks; main has checked that the CPU clock works.
func now() stamp {
	cpu, _ := processCPU()
	return stamp{time.Now(), cpu}
}

// cost is host time spent between two stamps.
type cost struct{ wall, cpu time.Duration }

func (s stamp) to(e stamp) cost { return cost{e.wall.Sub(s.wall), e.cpu - s.cpu} }

func (c cost) plus(d cost) cost  { return cost{c.wall + d.wall, c.cpu + d.cpu} }
func (c cost) minus(d cost) cost { return cost{c.wall - d.wall, c.cpu - d.cpu} }

// simRep is one complete pass of a simulator workload: spec text to a
// torn-down system.
type simRep struct {
	parse, start, run, evaluate, close, total cost
	slices                                    []cost

	procs      int    // live occam procs after Start
	switches   uint64 // occam switches during RunFor
	delivered  uint64 // audio + video segments delivered to mixers and displays
	heapMB     float64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32

	play    latencyHist
	totals  map[string]float64
	digest  uint64 // fold of every audio delivery's mixer digest and count
	ops     int    // stream deliveries (stream × destination)
	refused int    // calls refused by admission
	leaked  int    // pooled wires never returned
	left    int    // goroutines still alive after Close
	summary *scenario.Summary

	sliceStats []sliceStat // traced reps only
}

// fingerprint renders every quantity that must repeat exactly across
// reps of one seed.
func (r *simRep) fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digest=%016x switches=%d delivered=%d procs=%d ops=%d refused=%d leaked=%d\n",
		r.digest, r.switches, r.delivered, r.procs, r.ops, r.refused, r.leaked)
	for _, name := range counterFamilies {
		fmt.Fprintf(&sb, "%s=%g\n", name, r.totals[name])
	}
	keys := make([]int64, 0, len(r.play))
	for k := range r.play {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Fprintf(&sb, "play %d %d\n", k, r.play[k])
	}
	sb.WriteString(r.summary.String())
	return sb.String()
}

// waitGoroutines waits up to a second for the goroutine count to fall
// back to base (exiting procs may still be unwinding after Shutdown
// returns) and returns how many remain above it.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			if n < 0 {
				n = 0
			}
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// runSimRep executes one rep of spec text. With tr non-nil it records
// spans around every call; with slices set it also takes an obs
// Snapshot.Delta and a switch count per RunFor slice.
func runSimRep(text string, tr *tracer, slices bool) (*simRep, error) {
	rep := &simRep{play: latencyHist{}}
	baseG := runtime.NumGoroutine()
	s0 := now()
	root := tr.begin("rep", 0)
	sp := tr.begin("scenario.Parse", root)
	sc, err := scenario.Parse(text)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	sp = tr.begin("scenario.NewRunner", root)
	r, err := scenario.NewRunner(sc)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("new runner: %w", err)
	}
	s1 := now()
	sp = tr.begin("Runner.Start", root)
	r.Start(nil)
	tr.end(sp)
	s2 := now()
	rep.parse, rep.start = s0.to(s1), s1.to(s2)
	rep.procs = r.Sys.RT.NumProcs()

	// Playout latency, capture stamp to speaker, over every destination:
	// chain onto each mixer's playout hook (the box's own recorder stays
	// in place) with the same definition the box records — mixing-pop
	// time plus the codec output block, concealment replays excluded.
	for _, b := range sc.Boxes {
		mix := r.Sys.Box(b.Name).Mixer()
		prev := mix.OnPlayout
		play := rep.play
		mix.OnPlayout = func(stream uint32, stamp, now int64) {
			if stamp > 0 {
				play[now-stamp+int64(segment.BlockDuration)]++
			}
			if prev != nil {
				prev(stream, stamp, now)
			}
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sw0 := r.Sys.RT.Switches()
	var prevSnap obs.Snapshot
	if slices {
		prevSnap = r.Sys.Obs.Snapshot()
	}
	for done := time.Duration(0); done < sc.Duration; done += sliceLen {
		d := min(sliceLen, sc.Duration-done)
		swBefore := r.Sys.RT.Switches()
		sp = tr.begin("Runner.RunFor", root)
		a := now()
		err := r.RunFor(d)
		c := a.to(now())
		tr.end(sp)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("run: %w", err)
		}
		rep.slices = append(rep.slices, c)
		rep.run = rep.run.plus(c)
		if slices {
			snap := r.Sys.Obs.Snapshot()
			rep.sliceStats = append(rep.sliceStats, sliceStat{
				Span:     sp,
				Virtual:  (done + d).String(),
				WallMS:   float64(c.wall) / float64(time.Millisecond),
				CPUMS:    float64(c.cpu) / float64(time.Millisecond),
				Switches: r.Sys.RT.Switches() - swBefore,
				Counters: familyTotals(snap.Delta(prevSnap)),
			})
			prevSnap = snap
		}
	}
	rep.switches = r.Sys.RT.Switches() - sw0
	runtime.ReadMemStats(&ms1)
	rep.mallocs = ms1.Mallocs - ms0.Mallocs
	rep.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rep.gcCycles = ms1.NumGC - ms0.NumGC

	// Live heap: forced GC at the end of the run, before Close. The
	// collection is measurement, not work a user pays for, so its cost
	// is taken out of the rep's total.
	g0 := now()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	gc := g0.to(now())
	rep.heapMB = float64(ms1.HeapAlloc) / (1 << 20)

	snap := r.Sys.Obs.Snapshot()
	rep.totals = familyTotals(snap)
	rep.delivered = uint64(rep.totals["mixer_segments_total"] + rep.totals["display_segments_total"])
	for _, b := range sc.Boxes {
		rep.leaked += r.Sys.Box(b.Name).WirePoolLeaked()
	}
	if r.Bal != nil {
		rep.refused = int(r.Bal.Rejected())
	}
	rep.digest, rep.ops = deliveryDigest(r)

	s3 := now()
	sp = tr.begin("Runner.Evaluate", root)
	sum, err := r.Evaluate()
	tr.end(sp)
	s4 := now()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	rep.summary = sum
	sp = tr.begin("Runner.Close", root)
	r.Close()
	tr.end(sp)
	s5 := now()
	tr.end(root)
	rep.evaluate, rep.close = s3.to(s4), s4.to(s5)
	rep.total = s0.to(s5).minus(gc)
	rep.left = waitGoroutines(baseG)
	return rep, nil
}

// deliveryDigest folds every audio delivery's mixer digest and segment
// count, streams in ref order and destinations in name order, into one
// word, and counts the deliveries (the benchmark's operations).
func deliveryDigest(r *scenario.Runner) (uint64, int) {
	refs := make([]string, 0, len(r.Streams))
	for ref := range r.Streams {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	h := fnv.New64a()
	ops := 0
	for _, ref := range refs {
		st := r.Streams[ref]
		dsts := make([]string, 0, len(st.VCIs))
		for dst := range st.VCIs {
			dsts = append(dsts, dst)
		}
		sort.Strings(dsts)
		for _, dst := range dsts {
			ops++
			if st.Video {
				continue
			}
			m := r.Sys.Box(dst).Mixer().Stats(st.VCIs[dst])
			fmt.Fprintf(h, "%s>%s:%d:%x;", ref, dst, m.Segments, m.Digest)
		}
	}
	return h.Sum64(), ops
}

// minReps is the fewest reps a run makes, however long each takes, so
// every reported time is a median of at least three.
const minReps = 3

// runSim measures a simulator workload: whole reps (spec text to
// teardown) back to back until the budget is spent. A traced run splits
// the budget: untraced reps first (the per-layer timings and counts),
// then reps with spans under a CPU profile (the cpu.* shares and the
// tracing overhead), then one rep with spans and an obs delta per slice.
// The per-slice snapshots are costly, so that rep runs outside the
// profile, which would otherwise mostly sample the tracing.
func runSim(o *outcome, name string, seed uint64, text, outDir string, budget time.Duration, traced bool) error {
	start := time.Now()
	plain := budget
	if traced {
		plain = budget * 2 / 5
	}
	var reps, treps []*simRep
	for len(reps) < minReps || time.Since(start) < plain {
		rep, err := runSimRep(text, nil, false)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
	}
	var tr *tracer
	var prof bytes.Buffer
	var sliced *simRep
	if traced {
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		for len(treps) < 1 || time.Since(start) < budget*4/5 {
			rep, err := runSimRep(text, tr, false)
			if err != nil {
				pprof.StopCPUProfile()
				return err
			}
			treps = append(treps, rep)
		}
		pprof.StopCPUProfile()
		rep, err := runSimRep(text, tr, true)
		if err != nil {
			return err
		}
		sliced = rep
		treps = append(treps, rep)
	}

	all := append(append([]*simRep(nil), reps...), treps...)
	want := all[0].fingerprint()
	for i, rep := range all {
		o.attempted += rep.ops + rep.refused
		o.failed += rep.refused
		if !rep.summary.Pass {
			for _, l := range rep.summary.Lines {
				if strings.HasPrefix(l, "FAIL") {
					o.failed++
				}
			}
			o.fail("rep %d: asserts failed:\n%s", i, rep.summary)
		}
		if rep.leaked != 0 {
			o.fail("rep %d: %d pooled wires leaked", i, rep.leaked)
		}
		if rep.left != 0 {
			o.fail("rep %d: %d goroutines left after Close", i, rep.left)
		}
		if got := rep.fingerprint(); got != want {
			o.fail("rep %d: deterministic counts differ from rep 0:\n%s", i, firstDiff(want, got))
		}
	}
	fmt.Printf("reps %d untraced, %d traced; digest %016x; %d procs, %d switches, %d segments per rep\n",
		len(reps), len(treps), all[0].digest, all[0].procs, all[0].switches, all[0].delivered)
	fmt.Print(all[0].summary)
	fmt.Print("per-rep cpu_s:")
	for _, rep := range reps {
		fmt.Printf(" %.3f", rep.total.cpu.Seconds())
	}
	fmt.Println()

	o.e2e = simE2E(reps)
	o.layer = simLayer(reps)
	if !traced {
		return nil
	}
	p, err := loadProfile(prof.Bytes())
	if err != nil {
		return err
	}
	for b, v := range p.shares() {
		o.layer[b] = metric{v, "%"}
	}
	profiled := treps[:len(treps)-1]
	tc := median(each(profiled, func(r *simRep) float64 { return r.total.cpu.Seconds() }))
	overhead := tc - o.e2e["cpu_s"].Value
	o.layer["trace.overhead_s"] = metric{overhead, "s"}
	sliceOverhead := sliced.total.cpu.Seconds() - o.e2e["cpu_s"].Value
	reportTrace(tr.spans, sliced, p)
	fmt.Printf("tracing overhead: spans and profile %+.4f cpu s per rep, per-slice obs deltas %+.4f cpu s per rep\n",
		overhead, sliceOverhead)
	path, err := writeJSON(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed), map[string]any{
		"workload":          name,
		"seed":              seed,
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"untraced_cpu_s":    o.e2e["cpu_s"].Value,
		"profiled_cpu_s":    tc,
		"trace_overhead_s":  overhead,
		"slices_overhead_s": sliceOverhead,
		"spans":             tr.spans,
		"slices":            sliced.sliceStats,
		"cpu_pct":           p.shares(),
	})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Println("trace written to", path)
	return nil
}

// firstDiff returns the first differing line of two fingerprints.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("  want %s\n  got  %s", al[i], bl[i])
		}
	}
	return "  (length differs)"
}

// each maps f over xs.
func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simE2E computes the end-to-end metrics from untraced reps. Host
// costs are CPU time, medians over reps; delivery is the same in every
// rep, so it comes from the first.
func simE2E(reps []*simRep) map[string]metric {
	t := reps[0].totals
	return map[string]metric{
		"setup_s":            {median(each(reps, func(r *simRep) float64 { return r.parse.plus(r.start).cpu.Seconds() })), "s"},
		"cpu_s":              {median(each(reps, func(r *simRep) float64 { return r.total.cpu.Seconds() })), "s"},
		"segments_per_cpu_s": {median(each(reps, func(r *simRep) float64 { return float64(r.delivered) / r.run.cpu.Seconds() })), "1/s"},
		"live_heap_mb":       {median(each(reps, func(r *simRep) float64 { return r.heapMB })), "MB"},
		"delivered_pct":      {100 - lossPct(t), "%"},
	}
}

// lossPct is the share of audio segments the mixers found missing by
// sequence gap, of those delivered or missing.
func lossPct(t map[string]float64) float64 {
	return 100 * ratio(t["mixer_lost_segments_total"], t["mixer_segments_total"]+t["mixer_lost_segments_total"])
}

// simLayer computes the per-layer metrics: host times and allocation
// figures are medians over untraced reps (times in CPU seconds unless
// named wall), counts and virtual-time figures come from the first rep
// (every rep repeats them exactly), the leak checks take the worst rep.
func simLayer(reps []*simRep) map[string]metric {
	r0 := reps[0]
	t := r0.totals
	seg := float64(r0.delivered)
	var slices []float64
	for _, r := range reps {
		for _, c := range r.slices {
			slices = append(slices, c.cpu.Seconds())
		}
	}
	leaked, left := 0, 0
	for _, r := range reps {
		leaked = max(leaked, r.leaked)
		left = max(left, r.left)
	}
	count := func(names ...string) metric {
		var v float64
		for _, n := range names {
			v += t[n]
		}
		return metric{v, "count"}
	}
	out := zeroLayer()
	for name, m := range map[string]metric{
		"wall_s":            {median(each(reps, func(r *simRep) float64 { return r.total.wall.Seconds() })), "s"},
		"segments_per_s":    {median(each(reps, func(r *simRep) float64 { return float64(r.delivered) / r.run.wall.Seconds() })), "1/s"},
		"node_cpu_ms_per_s": {median(each(reps, func(r *simRep) float64 { return 1000 * r.run.cpu.Seconds() / r.run.wall.Seconds() })), "ms/s"},

		"scenario.parse_s":    {median(each(reps, func(r *simRep) float64 { return r.parse.cpu.Seconds() })), "s"},
		"core.start_s":        {median(each(reps, func(r *simRep) float64 { return r.start.cpu.Seconds() })), "s"},
		"core.procs":          {float64(r0.procs), "count"},
		"scenario.evaluate_s": {median(each(reps, func(r *simRep) float64 { return r.evaluate.cpu.Seconds() })), "s"},
		"core.close_s":        {median(each(reps, func(r *simRep) float64 { return r.close.cpu.Seconds() })), "s"},

		"occam.switches":             {float64(r0.switches), "count"},
		"occam.switches_per_segment": {ratio(float64(r0.switches), seg), "ratio"},
		"occam.ns_per_switch":        {median(each(reps, func(r *simRep) float64 { return ratio(float64(r.run.cpu), float64(r.switches)) })), "ns"},
		"occam.slice_ms_p50":         {1000 * quantile(slices, 0.5), "ms"},
		"occam.slice_ms_p99":         {1000 * quantile(slices, 0.99), "ms"},

		"fabric.forwarded":         count("fabric_port_forwarded_total"),
		"fabric.cells_per_forward": {ratio(t["fabric_port_cells_total"], t["fabric_port_forwarded_total"]), "ratio"},
		"fabric.drops": count("fabric_port_ingress_drops_total", "fabric_port_egress_drops_total",
			"fabric_port_shed_drops_total", "fabric_port_fault_drops_total", "fabric_port_unrouted_total"),

		"box.switched":          count("switch_switched_total"),
		"box.switch_drops":      count("switch_full_drops_total", "switch_age_drops_total", "switch_shed_drops_total", "switch_noroute_total"),
		"allocator.grants":      count("allocator_grants_total"),
		"allocator.starvations": count("allocator_starvations_total"),
		"decouple.pushed":       count("decouple_pushed_total"),
		"decouple.refused_ratio": {ratio(t["decouple_refused_total"],
			t["decouple_pushed_total"]+t["decouple_refused_total"]), "ratio"},
		"atm.forwarded": count("atm_link_forwarded_total"),
		"atm.drops":     count("atm_link_loss_drops_total", "atm_link_queue_drops_total", "atm_link_fault_drops_total"),

		"clawback.pushed":       count("clawback_pushed_total"),
		"clawback.silence":      count("clawback_silence_total"),
		"clawback.drops":        count("clawback_claw_drops_total", "clawback_limit_drops_total", "clawback_pool_drops_total", "clawback_fault_drops_total"),
		"mixer.concealed":       count("mixer_concealed_total"),
		"mixer.ticks":           count("mixer_ticks_total"),
		"mixer.blocks_per_tick": {ratio(t["clawback_popped_total"], t["mixer_ticks_total"]), "ratio"},
		"mixer.playout_mean_ms": {r0.play.meanMS(), "ms"},
		"mixer.playout_p50_ms":  {float64(r0.play.percentile(50)) / float64(time.Millisecond), "ms"},
		"mixer.playout_p99_ms":  {float64(r0.play.percentile(99)) / float64(time.Millisecond), "ms"},
		"mixer.loss_pct":        {lossPct(t), "%"},
		"mixer.silence_pct":     {100 * ratio(t["clawback_silence_total"], t["mixer_blocks_total"]), "%"},

		"degrade.ticks":       count("degrade_ticks_total"),
		"degrade.sheds":       count("degrade_shed_total"),
		"balancer.rejected":   count("balancer_rejected_total"),
		"balancer.migrations": count("balancer_migrations_total"),
		"tree.repairs":        count("tree_repairs_total"),

		"go.mallocs_per_segment":     {median(each(reps, func(r *simRep) float64 { return ratio(float64(r.mallocs), seg) })), "count"},
		"go.alloc_bytes_per_segment": {median(each(reps, func(r *simRep) float64 { return ratio(float64(r.allocBytes), seg) })), "B"},
		"go.gc_cycles":               {median(each(reps, func(r *simRep) float64 { return float64(r.gcCycles) })), "count"},

		"segment.wires_leaked": {float64(leaked), "count"},
		"core.goroutines_left": {float64(left), "count"},
	} {
		out[name] = m
	}
	return out
}
