package experiment

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// These tests assert the *shape* of every experiment: who wins, by
// roughly what factor, where the paper's crossovers fall.

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.Fields(s)[0])
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return n
}

func TestE1CapacitiesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := E1()
	// The remark carries the measured capacities.
	remark := tab.Remarks[len(tab.Remarks)-1]
	if !strings.Contains(remark, "5 plain") || !strings.Contains(remark, "3 loaded") {
		t.Fatalf("capacities drifted from the paper: %s", remark)
	}
}

func TestE2HundredStreamsFit(t *testing.T) {
	tab := E2()
	for _, row := range tab.Rows {
		n := atoi(t, row[0])
		keeps := row[4]
		if n <= 100 && keeps != "yes" {
			t.Fatalf("%d streams did not fit the 20Mbit/s link", n)
		}
		if n >= 150 && keeps != "NO" {
			t.Fatalf("%d streams fit — link model too generous", n)
		}
	}
}

func TestE3LatencyNear8ms(t *testing.T) {
	tab := E3()
	best := tab.Rows[0][1]
	v, err := strconv.ParseFloat(strings.TrimSuffix(best, "ms"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 5 || v > 11 {
		t.Fatalf("best latency %vms, paper 8ms", v)
	}
}

func TestE4VideoJitterShape(t *testing.T) {
	tab := E4()
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
		return v
	}
	quiet := parse(cell(tab, 0, 1))
	nonInter := parse(cell(tab, 1, 1))
	inter := parse(cell(tab, 2, 1))
	if quiet > 3 {
		t.Fatalf("audio-only jitter %vms", quiet)
	}
	if nonInter < 8 || nonInter > 30 {
		t.Fatalf("non-interleaved jitter %vms, paper: up to 20ms", nonInter)
	}
	if inter > nonInter/2 {
		t.Fatalf("interleaving did not help: %vms vs %vms", inter, nonInter)
	}
}

func TestE5AdaptsInAboutAMinute(t *testing.T) {
	tab, _ := E5()
	remark := tab.Remarks[0]
	if !strings.Contains(remark, "reached the 4 ms target") {
		t.Fatalf("no adaptation: %s", remark)
	}
	// Extract the duration between "target " and " after".
	var dur string
	if i := strings.Index(remark, "target "); i >= 0 {
		rest := remark[i+len("target "):]
		dur = strings.Fields(rest)[0]
	}
	d, err := parseDur(dur)
	if err != nil {
		t.Fatalf("bad remark %q: %v", remark, err)
	}
	if d.Seconds() < 40 || d.Seconds() > 90 {
		t.Fatalf("adaptation took %v, paper: about one minute", d)
	}
}

func parseDur(s string) (d durWrap, err error) {
	v, err := strconvParseDuration(s)
	return durWrap(v), err
}

type durWrap int64

func (d durWrap) Seconds() float64 { return float64(d) / 1e9 }

func strconvParseDuration(s string) (int64, error) {
	// small wrapper to avoid importing time twice in tests
	dd, err := parseGoDuration(s)
	return int64(dd), err
}

func TestE6DriftBounded(t *testing.T) {
	tab := E6()
	for _, row := range tab.Rows {
		if !strings.Contains(row[2], "blocks") {
			t.Fatalf("bad row %v", row)
		}
		n := atoi(t, row[2])
		if n > 8 {
			t.Fatalf("drift %s let occupancy reach %d blocks", row[0], n)
		}
	}
}

func TestE7MultiRateNumbers(t *testing.T) {
	tab := E7()
	p10, err := parseGoDuration(cell(tab, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	p50, err := parseGoDuration(cell(tab, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p10.Seconds() < 3 || p10.Seconds() > 5.5 {
		t.Fatalf("10ms drop period %v, paper 4s", p10)
	}
	if p50.Seconds() < 0.6 || p50.Seconds() > 1.1 {
		t.Fatalf("50ms drop period %v, paper 0.8s", p50)
	}
	half, err := parseGoDuration(cell(tab, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if half.Seconds() < 9 || half.Seconds() > 20 {
		t.Fatalf("half-life %v, paper ≈14s", half)
	}
}

func TestE8MutingStages(t *testing.T) {
	tab, _ := E8()
	want := map[string]string{
		"2ms":  "20%",
		"20ms": "20%",
		"30ms": "50%",
		"43ms": "50%",
		"44ms": "100%",
		"60ms": "100%",
	}
	for _, row := range tab.Rows {
		if w, ok := want[row[0]]; ok && row[1] != w {
			t.Fatalf("factor at %s = %s, want %s", row[0], row[1], w)
		}
	}
}

func TestE9QualityLadder(t *testing.T) {
	tab := E9()
	if v := cell(tab, 0, 4); v != "clean" {
		t.Fatalf("no loss rated %q", v)
	}
	if v := cell(tab, 3, 4); v != "gravelly" && v != "garbled" {
		t.Fatalf("8%% loss rated %q", v)
	}
}

func TestE10AllPrinciplesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := E10()
	for _, row := range tab.Rows {
		if row[2] != "yes" {
			t.Fatalf("%s failed: %s", row[0], row[1])
		}
	}
}

func TestE11FastCopyUnaffected(t *testing.T) {
	tab := E11()
	fastLost := atoi(t, cell(tab, 0, 3))
	slowLost := atoi(t, cell(tab, 1, 3))
	if fastLost != 0 {
		t.Fatalf("fast copy lost %d segments", fastLost)
	}
	if slowLost == 0 {
		t.Fatal("slow path lost nothing — scenario too gentle")
	}
}

func TestE12NoLossAcrossReconfiguration(t *testing.T) {
	tab := E12()
	for _, row := range tab.Rows {
		if atoi(t, row[1]) != 0 {
			t.Fatalf("%s: kept copy lost segments", row[0])
		}
	}
}

func TestE13CommandLatencyBounded(t *testing.T) {
	tab := E13()
	for _, row := range tab.Rows {
		d, err := parseGoDuration(row[1])
		if err != nil {
			t.Fatal(err)
		}
		if d.Seconds() > 0.01 {
			t.Fatalf("command latency %v under %q", d, row[0])
		}
	}
}

func TestE14ClawbackWins(t *testing.T) {
	tab := E14()
	// Post-burst delay: clawback must be lowest or tied-lowest.
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
		return v
	}
	cb := parse(cell(tab, 0, 3))
	for i := 1; i < len(tab.Rows); i++ {
		if parse(cell(tab, i, 3)) < cb-1 {
			t.Fatalf("%s holds less post-burst delay than clawback", cell(tab, i, 0))
		}
	}
	// Clock adjust must show distortions; clawback none.
	if atoi(t, cell(tab, 2, 2)) == 0 {
		t.Fatal("clock adjust showed no distortion")
	}
	if atoi(t, cell(tab, 0, 2)) != 0 {
		t.Fatal("clawback distorted audio")
	}
}

func TestE15OverheadDrops(t *testing.T) {
	tab := E15()
	live := cell(tab, 0, 3)
	merged := cell(tab, 1, 3)
	if live != "53%" && live != "52%" {
		t.Fatalf("live overhead %s", live)
	}
	if merged != "10%" {
		t.Fatalf("merged overhead %s, want 10%%", merged)
	}
}

func TestE16SuperJanetSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := E16()
	// Silences must be a small fraction.
	var silRow string
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "silence") {
			silRow = row[1]
		}
	}
	if !strings.Contains(silRow, "%") {
		t.Fatalf("bad silence row %q", silRow)
	}
	pctStr := silRow[strings.Index(silRow, "(")+1 : strings.Index(silRow, "%")]
	v, err := strconv.ParseFloat(pctStr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if v > 5 {
		t.Fatalf("%.1f%% of playback was silence — the call failed", v)
	}
}

func TestE17SwitchRateReasonable(t *testing.T) {
	tab := E17()
	rate, err := strconv.ParseFloat(cell(tab, 0, 1), 64)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 1000 || rate > 100_000 {
		t.Fatalf("switch rate %.0f/s, paper ≈5kHz per transputer", rate)
	}
}

// TestE17SwitchCountExact ratchets the scheduler work of E17's call
// exactly: the count is deterministic, so any extra process hop on the
// per-segment path (a decoupling buffer regaining a process of its
// own, say) changes it. Lower it when a change removes switches; never
// raise it to make a change pass.
func TestE17SwitchCountExact(t *testing.T) {
	const want = 27093
	if got := e17Switches(); got != want {
		t.Fatalf("E17 call made %d context switches in %ds, want exactly %d", got, e17Seconds, want)
	}
}

func TestE18LatencyGrowsWithSegmentSize(t *testing.T) {
	tab := E18()
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
		return v
	}
	prev := -1.0
	for _, row := range tab.Rows {
		mean := parse(row[3])
		if mean < prev {
			t.Fatalf("mean latency not monotone in segment size: %v", tab.Rows)
		}
		prev = mean
	}
	// 12-block batching adds ≈20ms over 1-block.
	if d := parse(cell(tab, 3, 3)) - parse(cell(tab, 0, 3)); d < 10 || d > 30 {
		t.Fatalf("1→12 block latency delta %vms, want ≈20ms", d)
	}
}

func TestE19Limits(t *testing.T) {
	tab := E19()
	if atoi(t, cell(tab, 0, 1)) != 140 { // 200 - 60
		t.Fatalf("per-stream cap dropped %s, want 140", cell(tab, 0, 1))
	}
	if atoi(t, cell(tab, 1, 2)) == 0 {
		t.Fatal("shared pool never exhausted")
	}
}

func TestE20ReadyNeverBlocks(t *testing.T) {
	tab := E20()
	// Row 0 = ready protocol: blocked 0s, drops > 0.
	if cell(tab, 0, 4) != "0s" {
		t.Fatalf("ready producer blocked %s", cell(tab, 0, 4))
	}
	if atoi(t, cell(tab, 0, 3)) == 0 {
		t.Fatal("ready producer never dropped despite slow consumer")
	}
	// Row 1 = plain buffer: blocked for a long time, no drops.
	d, err := parseGoDuration(cell(tab, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Seconds() < 0.5 {
		t.Fatalf("plain producer blocked only %v", d)
	}
}

func TestA1HeadOfLineBlocking(t *testing.T) {
	tab := A1()
	downFast := atoi(t, cell(tab, 0, 1))
	upFast := atoi(t, cell(tab, 1, 1))
	if downFast < 3*upFast {
		t.Fatalf("downstream placement fast=%d vs upstream fast=%d: no head-of-line effect", downFast, upFast)
	}
}

func TestA2SplitBuffersProtectAudio(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := A2()
	split := atoi(t, cell(tab, 0, 2))
	shared := atoi(t, cell(tab, 1, 2))
	if shared <= split {
		t.Fatalf("shared buffer (%d silences) not worse than split (%d)", shared, split)
	}
}

func TestA3NeverResetDegrades(t *testing.T) {
	tab := A3()
	paper := atoi(t, cell(tab, 0, 1))
	ablated := atoi(t, cell(tab, 1, 1))
	if ablated <= paper {
		t.Fatalf("never-reset clawed %d vs paper %d: ablation shows no cost", ablated, paper)
	}
}

func TestTablesRender(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Paper: "p", Header: []string{"a", "b"}}
	tab.Add("1", "2")
	tab.Remark("note %d", 3)
	out := tab.String()
	for _, want := range []string{"X — t", "paper: p", "1", "note 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if ms(1.5) != "1.50ms" || pct(1, 4) != "25.00%" || pct(0, 0) != "0%" {
		t.Fatal("format helpers broken")
	}
}

// parseGoDuration parses a time.Duration string.
func parseGoDuration(s string) (time.Duration, error) { return time.ParseDuration(s) }
