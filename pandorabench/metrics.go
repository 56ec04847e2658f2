package main

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root repeats the two tables below; every run prints
// exactly one of the two sets.
type metricDef struct{ name, unit string }

var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"segments_per_cpu_s", "1/s"},
	{"live_heap_mb", "MB"},
	{"delivered_pct", "%"},
}

var layerDefs = []metricDef{
	{"wall_s", "s"}, {"segments_per_s", "1/s"}, {"node_cpu_ms_per_s", "ms/s"},
	{"scenario.parse_s", "s"}, {"core.start_s", "s"}, {"core.procs", "count"},
	{"scenario.evaluate_s", "s"}, {"core.close_s", "s"},
	{"occam.switches", "count"}, {"occam.switches_per_segment", "ratio"}, {"occam.ns_per_switch", "ns"},
	{"occam.slice_ms_p50", "ms"}, {"occam.slice_ms_p99", "ms"},
	{"fabric.forwarded", "count"}, {"fabric.cells_per_forward", "ratio"}, {"fabric.drops", "count"},
	{"box.switched", "count"}, {"box.switch_drops", "count"},
	{"allocator.grants", "count"}, {"allocator.starvations", "count"},
	{"decouple.pushed", "count"}, {"decouple.refused_ratio", "ratio"},
	{"atm.forwarded", "count"}, {"atm.drops", "count"},
	{"clawback.pushed", "count"}, {"clawback.silence", "count"}, {"clawback.drops", "count"},
	{"mixer.concealed", "count"}, {"mixer.ticks", "count"}, {"mixer.blocks_per_tick", "ratio"},
	{"mixer.playout_mean_ms", "ms"}, {"mixer.playout_p50_ms", "ms"}, {"mixer.playout_p99_ms", "ms"},
	{"mixer.loss_pct", "%"}, {"mixer.silence_pct", "%"},
	{"degrade.ticks", "count"}, {"degrade.sheds", "count"},
	{"balancer.rejected", "count"}, {"balancer.migrations", "count"}, {"tree.repairs", "count"},
	{"go.mallocs_per_segment", "count"}, {"go.alloc_bytes_per_segment", "B"}, {"go.gc_cycles", "count"},
	{"segment.wires_leaked", "count"}, {"core.goroutines_left", "count"},
	{"udptrans.datagrams", "count"}, {"udptrans.datagrams_per_batch", "ratio"}, {"udptrans.send_errors", "count"},
	{"node.overrun_ms", "ms"}, {"node.playout_mean_ms", "ms"},
	{"cpu.occam_pct", "%"}, {"cpu.goruntime_pct", "%"}, {"cpu.gc_pct", "%"},
	{"cpu.box_pct", "%"}, {"cpu.fabric_pct", "%"}, {"cpu.atm_pct", "%"}, {"cpu.decouple_pct", "%"}, {"cpu.allocator_pct", "%"},
	{"cpu.clawback_pct", "%"}, {"cpu.mixer_pct", "%"}, {"cpu.codec_pct", "%"},
	{"cpu.segment_pct", "%"}, {"cpu.workload_pct", "%"}, {"cpu.obs_pct", "%"},
	{"cpu.control_pct", "%"}, {"cpu.core_pct", "%"}, {"cpu.faultinject_pct", "%"}, {"cpu.other_pct", "%"},
	{"trace.overhead_s", "s"},
}

// zeroLayer returns every per-layer metric at 0: a workload that does
// not reach a layer reports nothing for it.
func zeroLayer() map[string]metric {
	out := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		out[d.name] = metric{0, d.unit}
	}
	return out
}

// checkDeclared reports any metric missing from, or not declared in,
// defs, or printed with another unit.
func checkDeclared(o *outcome, ms map[string]metric, defs []metricDef) {
	for _, d := range defs {
		m, ok := ms[d.name]
		switch {
		case !ok:
			o.fail("metric %s not measured", d.name)
		case m.Unit != d.unit:
			o.fail("metric %s in %s, declared in %s", d.name, m.Unit, d.unit)
		}
	}
	if len(ms) != len(defs) {
		o.fail("%d metrics measured, %d declared", len(ms), len(defs))
	}
}
