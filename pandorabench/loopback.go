package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// nodeReport is what one pandora-node process printed and used.
type nodeReport struct {
	sent      int // mic segments sent
	datagrams int
	batches   int
	sendErrs  int // batches lost to socket errors
	received  int // segments from the peer
	lost      int
	silence   int
	playoutMS float64
	wall      time.Duration // process start to exit
	cpu       time.Duration
	maxRSSMB  float64
}

var (
	reMic     = regexp.MustCompile(`mic: (\d+) segments sent`)
	reUDP     = regexp.MustCompile(`udp: (\d+) datagrams in (\d+) sendmmsg batches`)
	reSendErr = regexp.MustCompile(`udp: (\d+) batches lost to socket errors`)
	reVCI     = regexp.MustCompile(`VCI \d+ \(n\d+\): (\d+) segments, (\d+) lost, \d+ concealed, (\d+) silence insertions(?:, playout mean (\S+))?`)
)

// atoi converts a field the patterns above matched as digits only.
func atoi(s string) int { n, _ := strconv.Atoi(s); return n }

// parseNodeOutput reads the summary pandora-node prints at exit.
func parseNodeOutput(out string) (nodeReport, error) {
	var r nodeReport
	m := reMic.FindStringSubmatch(out)
	v := reVCI.FindStringSubmatch(out)
	if m == nil || v == nil {
		return r, fmt.Errorf("unrecognised pandora-node output:\n%s", out)
	}
	r.sent = atoi(m[1])
	r.received, r.lost, r.silence = atoi(v[1]), atoi(v[2]), atoi(v[3])
	if v[4] != "" {
		d, err := time.ParseDuration(v[4])
		if err != nil {
			return r, fmt.Errorf("playout mean %q: %v", v[4], err)
		}
		r.playoutMS = float64(d) / float64(time.Millisecond)
	}
	if u := reUDP.FindStringSubmatch(out); u != nil {
		r.datagrams, r.batches = atoi(u[1]), atoi(u[2])
	}
	if e := reSendErr.FindStringSubmatch(out); e != nil {
		r.sendErrs = atoi(e[1])
	}
	return r, nil
}

// freePorts returns n UDP ports on 127.0.0.1 that were free a moment
// ago.
func freePorts(n int) ([]int, error) {
	var conns []*net.UDPConn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	return ports, nil
}

// session is one two-node conference.
type session struct {
	setup, wall time.Duration
	nodes       [2]nodeReport
}

// runSession starts both nodes back to back (no stagger: a node may
// send before its peer has bound, and those sends count as loss) and
// waits for both to exit.
func runSession(text, node, specPath string, tr *tracer) (*session, error) {
	s := &session{}
	root := tr.begin("session", 0)
	t0 := time.Now()
	sp := tr.begin("scenario.Parse", root)
	_, err := scenario.Parse(text)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := os.WriteFile(specPath, []byte(text), 0o644); err != nil {
		return nil, err
	}
	ports, err := freePorts(2)
	if err != nil {
		return nil, fmt.Errorf("pick ports: %w", err)
	}
	peers := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d", ports[0], ports[1])
	var cmds [2]*exec.Cmd
	var outs [2]bytes.Buffer
	var starts [2]time.Time
	for i := range cmds {
		cmds[i] = exec.Command(node, "-scenario", specPath, "-index", strconv.Itoa(i), "-peers", peers)
		cmds[i].Stdout = &outs[i]
		cmds[i].Stderr = &outs[i]
		sp := tr.begin(fmt.Sprintf("start n%02d", i), root)
		starts[i] = time.Now()
		err := cmds[i].Start()
		tr.end(sp)
		if err != nil {
			if i == 1 {
				_ = cmds[0].Process.Kill()
				_ = cmds[0].Wait()
			}
			return nil, fmt.Errorf("start pandora-node: %w", err)
		}
	}
	s.setup = time.Since(t0)
	var errs []string
	for i, c := range cmds {
		sp := tr.begin(fmt.Sprintf("wait n%02d", i), root)
		err := c.Wait()
		tr.end(sp)
		wall := time.Since(starts[i])
		if err != nil {
			errs = append(errs, fmt.Sprintf("n%02d: %v\n%s", i, err, outs[i].String()))
			continue
		}
		r, err := parseNodeOutput(outs[i].String())
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		r.wall = wall
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			r.maxRSSMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
		}
		s.nodes[i] = r
	}
	s.wall = time.Since(t0)
	tr.end(root)
	if len(errs) > 0 {
		return nil, fmt.Errorf("pandora-node failed: %s", strings.Join(errs, "; "))
	}
	return s, nil
}

// runLoopback measures the loopback workload: two-node sessions back to
// back until the budget is spent (at least three). A traced run gives
// the second half of the budget to traced sessions.
func runLoopback(o *outcome, text, node, outDir string, budget time.Duration, traced bool) error {
	if node == "" {
		return fmt.Errorf("loopback needs --node, the pandora-node binary")
	}
	sc, err := scenario.Parse(text)
	if err != nil {
		return err
	}
	specPath := filepath.Join(outDir, fmt.Sprintf("loopback-%d.scn", os.Getpid()))
	defer os.Remove(specPath)

	start := time.Now()
	plain := budget
	if traced {
		plain = budget / 2
	}
	var plainS, tracedS []*session
	for len(plainS) < minReps || time.Since(start) < plain {
		s, err := runSession(text, node, specPath, nil)
		if err != nil {
			return err
		}
		plainS = append(plainS, s)
	}
	tr := newTracer()
	if traced {
		for len(tracedS) < 1 || time.Since(start) < budget {
			s, err := runSession(text, node, specPath, tr)
			if err != nil {
				return err
			}
			tracedS = append(tracedS, s)
		}
	}

	// Correctness: each node must hear its peer, and may not report more
	// segments received and lost than its peer sent.
	all := append(append([]*session(nil), plainS...), tracedS...)
	for k, s := range all {
		for i, r := range s.nodes {
			peer := s.nodes[1-i]
			o.attempted++
			if r.received == 0 || r.received+r.lost > peer.sent {
				o.failed++
				o.fail("session %d: n%02d received %d (+%d lost) of %d sent by its peer", k, i, r.received, r.lost, peer.sent)
			}
		}
	}

	blocks := sc.Boxes[0].Blocks
	if blocks == 0 {
		blocks = 2 // the box default
	}
	var sent, recv, silence, dgrams, batches, sendErrs int
	for _, s := range plainS {
		for i, r := range s.nodes {
			sent += s.nodes[1-i].sent
			recv += r.received
			silence += r.silence
			dgrams += r.datagrams
			batches += r.batches
			sendErrs += r.sendErrs
		}
	}
	nominal := sc.Duration.Seconds()
	nodeCPU := func(s *session) float64 { return (s.nodes[0].cpu + s.nodes[1].cpu).Seconds() }
	received := func(s *session) float64 { return float64(s.nodes[0].received + s.nodes[1].received) }
	loss := 100 * ratio(float64(sent-recv), float64(sent))
	o.e2e = map[string]metric{
		"setup_s":            {median(each(plainS, func(s *session) float64 { return s.setup.Seconds() })), "s"},
		"cpu_s":              {median(each(plainS, nodeCPU)), "s"},
		"segments_per_cpu_s": {median(each(plainS, func(s *session) float64 { return received(s) / nodeCPU(s) })), "1/s"},
		"live_heap_mb": {median(each(plainS, func(s *session) float64 {
			return max(s.nodes[0].maxRSSMB, s.nodes[1].maxRSSMB)
		})), "MB"},
		"delivered_pct": {100 - loss, "%"},
	}
	fmt.Printf("sessions %d untraced, %d traced; %d segments sent, %d received, %d batches lost to socket errors\n",
		len(plainS), len(tracedS), sent, recv, sendErrs)

	playout := median(each(plainS, func(s *session) float64 { return (s.nodes[0].playoutMS + s.nodes[1].playoutMS) / 2 }))
	o.layer = zeroLayer()
	for name, m := range map[string]metric{
		"wall_s":                       {median(each(plainS, func(s *session) float64 { return s.wall.Seconds() })), "s"},
		"segments_per_s":               {median(each(plainS, func(s *session) float64 { return received(s) / s.wall.Seconds() })), "1/s"},
		"node_cpu_ms_per_s":            {median(each(plainS, func(s *session) float64 { return 1000 * nodeCPU(s) / s.wall.Seconds() })), "ms/s"},
		"mixer.loss_pct":               {loss, "%"},
		"mixer.silence_pct":            {100 * ratio(float64(silence), float64(recv*blocks)), "%"},
		"mixer.playout_mean_ms":        {playout, "ms"},
		"node.playout_mean_ms":         {playout, "ms"},
		"udptrans.datagrams":           {float64(dgrams), "count"},
		"udptrans.datagrams_per_batch": {ratio(float64(dgrams), float64(batches)), "ratio"},
		"udptrans.send_errors":         {float64(sendErrs), "count"},
		"node.overrun_ms": {1000 * median(each(plainS, func(s *session) float64 {
			return max(s.nodes[0].wall, s.nodes[1].wall).Seconds() - nominal
		})), "ms"},
	} {
		o.layer[name] = m
	}
	if traced {
		tw := median(each(tracedS, func(s *session) float64 { return s.wall.Seconds() }))
		o.layer["trace.overhead_s"] = metric{tw - o.layer["wall_s"].Value, "s"}
		path, err := writeJSON(outDir, fmt.Sprintf("trace-loopback-seed%d.json", sc.Seed), map[string]any{
			"workload": "loopback", "seed": sc.Seed, "spans": tr.spans,
			"untraced_wall_s": o.layer["wall_s"].Value, "traced_wall_s": tw,
		})
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Println("trace written to", path)
	}
	return nil
}
