// Command pandora-bench regenerates every table and figure of the
// paper's evaluation (§3.7.2, §4) plus the ablations, printing each
// with the paper's claim alongside the measured values. All runs are
// deterministic. With -run, only experiments whose ID contains the
// given substring execute. With -no-wall, the host wall-time lines are
// left out, so the output is byte-identical from run to run and
// machine to machine (scenarios/golden/tables.txt is that output).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiment"
)

// benchRecord is one experiment's cost in BENCH_e2e.json: the wall
// time and heap traffic of one full experiment run (the same work a
// bench_test.go iteration does).
type benchRecord struct {
	ID          string `json:"id"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
}

// benchFile is the BENCH_e2e.json schema. Micro holds the per-op cost
// of the isolated fast-path workloads (one op = one segment through
// the crossbar, one datagram through the batcher — matching
// BenchmarkFabricCrossbar and BenchmarkUDPTransBatch). PreRefactor
// records the allocs/op of the boxed-`any` data path before the
// single-copy segment.Wire refactor, so the trajectory stays visible;
// CI compares fresh E2/E3 numbers against Experiments as the committed
// baseline.
type benchFile struct {
	Schema      string            `json:"schema"`
	Experiments []benchRecord     `json:"experiments"`
	Micro       []benchRecord     `json:"micro"`
	PreRefactor map[string]uint64 `json:"pre_refactor_allocs_per_op"`
}

// microRecords measures the fast-path micro workloads at a fixed
// iteration count, reporting per-op figures like testing.B would.
func microRecords() []benchRecord {
	type micro struct {
		id    string
		iters int
		fn    func(iters int)
	}
	micros := []micro{
		{"FabricCrossbar", 200_000, func(n int) { experiment.MicroFabricCrossbar(n) }},
		{"UDPTransBatch", 100_000, func(n int) {
			if _, _, err := experiment.MicroUDPTransBatch(n); err != nil {
				fmt.Fprintf(os.Stderr, "micro UDPTransBatch: %v\n", err)
			}
		}},
	}
	var out []benchRecord
	for _, m := range micros {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		m.fn(m.iters)
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		out = append(out, benchRecord{
			ID:          m.id,
			NsPerOp:     wall.Nanoseconds() / int64(m.iters),
			BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(m.iters),
			AllocsPerOp: (after.Mallocs - before.Mallocs) / uint64(m.iters),
		})
	}
	return out
}

func main() {
	run := flag.String("run", "", "only run experiments whose ID contains this substring")
	benchJSON := flag.String("bench-json", "", "write per-experiment ns/op, B/op, allocs/op to this file (e.g. BENCH_e2e.json)")
	noWall := flag.Bool("no-wall", false, "omit the host wall-time lines, leaving only deterministic output")
	flag.Parse()

	type exp struct {
		id string
		fn func() *experiment.Table
	}
	experiments := []exp{
		{"E1", experiment.E1},
		{"E2", experiment.E2},
		{"E3", experiment.E3},
		{"E4", experiment.E4},
		{"E5", func() *experiment.Table { t, _ := experiment.E5(); return t }},
		{"E6", experiment.E6},
		{"E7", experiment.E7},
		{"E8", func() *experiment.Table { t, _ := experiment.E8(); return t }},
		{"E9", experiment.E9},
		{"E10", experiment.E10},
		{"E11", experiment.E11},
		{"E12", experiment.E12},
		{"E13", experiment.E13},
		{"E14", experiment.E14},
		{"E15", experiment.E15},
		{"E16", experiment.E16},
		{"E17", experiment.E17},
		{"E18", experiment.E18},
		{"E19", experiment.E19},
		{"E20", experiment.E20},
		{"E21", func() *experiment.Table { t, _ := experiment.E21(); return t }},
		{"E22", func() *experiment.Table { t, _ := experiment.E22(); return t }},
		{"E23", func() *experiment.Table { t, _ := experiment.E23(); return t }},
		{"E24", func() *experiment.Table { t, _ := experiment.E24(); return t }},
		{"A1", experiment.A1},
		{"A2", experiment.A2},
		{"A3", experiment.A3},
	}

	fmt.Println("Pandora reproduction — evaluation tables")
	fmt.Println("(Jones & Hopper, SOSP 1993; all numbers from the deterministic simulation)")
	fmt.Println()
	start := time.Now()
	ran := 0
	var records []benchRecord
	for _, e := range experiments {
		if *run != "" && !strings.Contains(e.id, *run) {
			continue
		}
		var before, after runtime.MemStats
		if *benchJSON != "" {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		tab := e.fn()
		wall := time.Since(t0)
		if *benchJSON != "" {
			runtime.ReadMemStats(&after)
			records = append(records, benchRecord{
				ID:          e.id,
				NsPerOp:     wall.Nanoseconds(),
				BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
				AllocsPerOp: after.Mallocs - before.Mallocs,
			})
		}
		fmt.Print(tab)
		if !*noWall {
			fmt.Printf("  (%.2fs wall)\n", wall.Seconds())
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -run=%q\n", *run)
		os.Exit(1)
	}
	if !*noWall {
		fmt.Printf("%d experiments in %.1fs\n", ran, time.Since(start).Seconds())
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, records); err != nil {
			fmt.Fprintf(os.Stderr, "bench-json: %v\n", err)
			os.Exit(1)
		}
	}
}

// preRefactorAllocs are the allocs/op of BenchmarkE2LinkCapacity and
// BenchmarkE3OneWayLatency measured immediately before the single-copy
// segment.Wire refactor (boxed `any` payloads re-marshalled per hop),
// kept so BENCH_e2e.json records the trajectory.
var preRefactorAllocs = map[string]uint64{
	"E2": 1_590_988,
	"E3": 744_148,
}

func writeBenchJSON(path string, records []benchRecord) error {
	out := benchFile{
		Schema:      "pandora-bench-e2e/v1",
		Experiments: records,
		Micro:       microRecords(),
		PreRefactor: preRefactorAllocs,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
