package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// sliceStat is what one RunFor slice of a traced rep did.
type sliceStat struct {
	Span     int                `json:"span"`
	Virtual  string             `json:"virtual_end"`
	WallMS   float64            `json:"wall_ms"`
	CPUMS    float64            `json:"cpu_ms"`
	Switches uint64             `json:"switches"`
	Counters map[string]float64 `json:"counters"` // obs Snapshot.Delta totals by family
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced reps pay only a nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// cpuBins are the per-layer CPU shares the traced run reports, keyed by
// metric name. A sample is charged to the bin of its leaf function's
// package, Go runtime code to goruntime, and any sample under a GC
// worker or sweeper to gc.
var cpuBins = []string{
	"cpu.occam_pct", "cpu.goruntime_pct", "cpu.gc_pct",
	"cpu.box_pct", "cpu.fabric_pct", "cpu.atm_pct", "cpu.decouple_pct", "cpu.allocator_pct",
	"cpu.clawback_pct", "cpu.mixer_pct", "cpu.codec_pct",
	"cpu.segment_pct", "cpu.workload_pct", "cpu.obs_pct",
	"cpu.control_pct", "cpu.core_pct", "cpu.faultinject_pct", "cpu.other_pct",
}

var pkgBins = map[string]string{
	"repro/internal/occam":        "cpu.occam_pct",
	"repro/internal/box":          "cpu.box_pct",
	"repro/internal/fabric":       "cpu.fabric_pct",
	"repro/internal/atm":          "cpu.atm_pct",
	"repro/internal/atm/udptrans": "cpu.atm_pct",
	"repro/internal/decouple":     "cpu.decouple_pct",
	"repro/internal/allocator":    "cpu.allocator_pct",
	"repro/internal/clawback":     "cpu.clawback_pct",
	"repro/internal/mixer":        "cpu.mixer_pct",
	"repro/internal/mulaw":        "cpu.codec_pct",
	"repro/internal/muting":       "cpu.codec_pct",
	"repro/internal/video":        "cpu.codec_pct",
	"repro/internal/segment":      "cpu.segment_pct",
	"repro/internal/workload":     "cpu.workload_pct",
	"repro/internal/obs":          "cpu.obs_pct",
	"repro/internal/degrade":      "cpu.control_pct",
	"repro/internal/balancer":     "cpu.control_pct",
	"repro/internal/core":         "cpu.core_pct",
	"repro/internal/scenario":     "cpu.core_pct",
	"repro/internal/faultinject":  "cpu.faultinject_pct",
}

// funcPackage returns the import path of a Go symbol such as
// "repro/internal/occam.(*Runtime).park".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

func binOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "cpu.gc_pct"
		}
	}
	pkg := funcPackage(stack[0])
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "runtime/internal") {
		return "cpu.goruntime_pct"
	}
	// Standard-library helpers (container/heap, sort, fmt, …) are
	// charged to the nearest program layer that called them.
	for _, fn := range stack {
		if b, ok := pkgBins[funcPackage(fn)]; ok {
			return b
		}
	}
	return "cpu.other_pct"
}

// loadProfile decodes a gzipped pprof CPU profile.
func loadProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stacks calls fn for every sample with its CPU time and its function
// names, leaf first.
func (p *profile) stacks(fn func(v float64, stack []string)) {
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		if len(stack) > 0 {
			fn(float64(s.values[len(s.values)-1]), stack)
		}
	}
}

// shares bins the profile into cpuBins, as percentages of all sampled
// CPU time.
func (p *profile) shares() map[string]float64 {
	byBin := map[string]float64{}
	var total float64
	p.stacks(func(v float64, stack []string) {
		byBin[binOf(stack)] += v
		total += v
	})
	out := make(map[string]float64, len(cpuBins))
	for _, b := range cpuBins {
		out[b] = 100 * ratio(byBin[b], total)
	}
	return out
}

// top lists the n leaf functions with the most CPU time.
func (p *profile) top(n int) []string {
	by := map[string]float64{}
	var total float64
	p.stacks(func(v float64, stack []string) {
		by[stack[0]] += v
		total += v
	})
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]] > by[names[j]] })
	if len(names) > n {
		names = names[:n]
	}
	out := make([]string, len(names))
	for i, k := range names {
		out[i] = fmt.Sprintf("%5.1f%% %s", 100*by[k]/total, k)
	}
	return out
}

// reportTrace prints the traced reps' span totals (with self time: a
// span's duration minus its children's), the costliest slices of the
// sliced rep, and the profile's hottest functions.
func reportTrace(spans []span, sliced *simRep, p *profile) {
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var order []string
	for _, s := range spans {
		a, ok := by[s.Name]
		if !ok {
			a = &agg{}
			by[s.Name] = a
			order = append(order, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[s.ID]
	}
	fmt.Println("spans (traced reps):")
	for _, name := range order {
		a := by[name]
		fmt.Printf("  %-20s n=%-5d total %10.3f ms  self %10.3f ms\n", name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	{
		sl := append([]sliceStat(nil), sliced.sliceStats...)
		sort.SliceStable(sl, func(i, j int) bool { return sl[i].CPUMS > sl[j].CPUMS })
		fmt.Printf("slices (%d of %s virtual): costliest by cpu ms\n", len(sl), sliceLen)
		for _, st := range sl[:min(5, len(sl))] {
			fmt.Printf("  ending %-8s wall %8.3f ms  cpu %8.3f ms  %7d switches  %6.0f segments\n",
				st.Virtual, st.WallMS, st.CPUMS, st.Switches,
				st.Counters["mixer_segments_total"]+st.Counters["display_segments_total"])
		}
	}
	fmt.Println("hottest leaf functions:")
	for _, l := range p.top(10) {
		fmt.Println("  " + l)
	}
}

// profile is the part of a pprof profile.proto the binning needs.
type profile struct {
	samples   []profSample
	locLines  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errTruncated = errors.New("truncated protobuf")

// protoFields walks one protobuf message, calling fn per field with
// its number, wire type, integer value (wire types 0, 1, 5) or bytes
// (wire type 2).
func protoFields(b []byte, fn func(num int, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch {
		case wt == 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wt == 1 && len(b) >= 8:
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wt == 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case wt == 5 && len(b) >= 4:
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wt == 1 || wt == 5:
			return errTruncated
		default:
			return fmt.Errorf("protobuf wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeatedUint appends a repeated integer field's value(s), packed or
// not.
func repeatedUint(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := protoFields(b, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			err := protoFields(data, func(num, wt int, v uint64, d []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = repeatedUint(s.locs, wt, v, d)
				case 2:
					vals, err = repeatedUint(vals, wt, v, d)
				}
				return err
			})
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := protoFields(data, func(num, wt int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(d, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fids
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside string table", idx)
		}
	}
	return p, nil
}
