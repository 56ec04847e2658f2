// Command pandorabench is the end-to-end and per-layer benchmark of the
// Pandora reproduction. It generates each workload from a seed as
// scenario spec text, drives the program through its public scenario
// calls (or, for loopback, through pandora-node processes), checks the
// outputs, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Run it through run.sh from the repository root, which builds this
// package and pandora-node from source first:
//
//	bash pandorabench/run.sh --workload conference --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds a traced
// pass and reports the per-layer metrics instead. --emit prints the
// generated spec and exits. See README.md in this directory for every
// metric's definition and the reason for each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/scenario"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload's run function hands back: both metric sets (the
// caller prints the one --trace selects), the operation counts, and the
// correctness failures found.
type outcome struct {
	e2e       map[string]metric
	layer     map[string]metric
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload name: conference, crowd, overload or loopback")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same spec")
	secs := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	emit := flag.Bool("emit", false, "print the generated spec text and exit")
	node := flag.String("node", "", "pandora-node binary (loopback workload)")
	out := flag.String("out", ".bench_build", "directory for trace files and loopback specs")
	flag.Parse()

	gen, ok := generators[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "pandorabench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pandorabench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	text := gen(*seed)
	if *emit {
		fmt.Print(text)
		return
	}
	if _, err := processCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "pandorabench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pandorabench:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d GOMAXPROCS %d %s\n",
		*workload, *seed, *secs, *trace, runtime.GOMAXPROCS(0), runtime.Version())

	o := &outcome{}
	checkRoundTrip(o, text)
	budget := time.Duration(*secs) * time.Second
	traced := *trace == 1
	var err error
	if *workload == "loopback" {
		err = runLoopback(o, text, *node, *out, budget, traced)
	} else {
		err = runSim(o, *workload, *seed, text, *out, budget, traced)
	}
	if err != nil {
		o.fail("%v", err)
	}

	printed, defs := o.e2e, e2eDefs
	if traced {
		printed, defs = o.layer, layerDefs
	}
	if err == nil {
		checkDeclared(o, printed, defs)
	}
	names := make([]string, 0, len(printed))
	for n := range printed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.6g %s\n", n, printed[n].Value, printed[n].Unit)
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: printed}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, p := range o.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pandorabench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// checkRoundTrip checks that the generated spec survives
// Parse → Format → Parse unchanged.
func checkRoundTrip(o *outcome, text string) {
	a, err := scenario.Parse(text)
	if err != nil {
		o.fail("generated spec does not parse: %v", err)
		return
	}
	b, err := scenario.Parse(a.Format())
	if err != nil {
		o.fail("formatted spec does not parse: %v", err)
		return
	}
	if !reflect.DeepEqual(a, b) || a.Format() != b.Format() {
		o.fail("Parse → Format → Parse changed the spec")
	}
}

// writeJSON writes v to dir/name and returns the path.
func writeJSON(dir, name string, v any) (string, error) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}
