package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"
)

// Workload generators. Each turns a seed into scenario spec text; the
// program under test only ever sees that text, through scenario.Parse
// (or, for loopback, through pandora-node -scenario). The seed moves
// timing, placement and workload content; it never moves the size of a
// workload (box counts, stream counts, run lengths stay fixed), so host
// cost per run is comparable across seeds.

// generators maps every workload name to its spec generator.
var generators = map[string]func(seed uint64) string{
	"conference": genConference,
	"crowd":      genCrowd,
	"overload":   genOverload,
	"loopback":   genLoopback,
}

// workloadNames is the fixed workload order for listings.
var workloadNames = []string{"conference", "crowd", "overload", "loopback"}

func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x70616e646f7261))
}

// ms renders a duration as a whole number of milliseconds, the unit the
// spec printer uses for event times.
func ms(d time.Duration) string { return fmt.Sprintf("%dms", d/time.Millisecond) }

// uniform returns a duration drawn uniformly from [lo, hi], rounded to
// the microsecond so the spec text stays short.
func uniform(r *rand.Rand, lo, hi time.Duration) time.Duration {
	us := int64((hi - lo) / time.Microsecond)
	return lo + time.Duration(r.Int64N(us+1))*time.Microsecond
}

func boxNames(prefix string, n, width int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%0*d", prefix, width, i)
	}
	return out
}

// Conference sizes: five boxes (inside the 4–6 the paper's conference
// experiments use), 12 virtual seconds of which the last two idle.
const (
	confBoxes    = 5
	confDuration = 12 * time.Second
	confClose    = 10 * time.Second
)

// genConference is a full-mesh audio conference with jitter correction
// on every box, over pairwise 100 Mbit/s links with seeded propagation
// delays and a light seeded cell loss, plus two fractional-rate video
// streams. Every stream closes two seconds before the end so the run
// finishes idle and every pooled wire can drain.
func genConference(seed uint64) string {
	r := newRNG(seed)
	names := boxNames("b", confBoxes, 1)
	var sb strings.Builder
	fmt.Fprintf(&sb, "# conference: %d-box full-mesh audio conference with jitter correction,\n", confBoxes)
	sb.WriteString("# two fractional-rate video streams, lossy 100 Mbit/s pairwise links.\n")
	fmt.Fprintf(&sb, "scenario conference\nseed %d\nduration %s\n\n", seed, ms(confDuration))
	for i, n := range names {
		fmt.Fprintf(&sb, "box %s mic=speech:%d:12000 jitter camera=128x64\n", n, seed*16+uint64(i)+1)
	}
	sb.WriteString("\n")
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			prop := uniform(r, 500*time.Microsecond, 1500*time.Microsecond)
			fmt.Fprintf(&sb, "link %s %s bw=100M prop=%s loss=0.002 lseed=%d\n",
				names[i], names[j], prop, r.Uint64N(1<<32)+1)
		}
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "at 0s conference %s as conf\n", strings.Join(names, " "))
	perm := r.Perm(confBoxes)
	videos := []struct{ rect, rate string }{
		{"0,0,128,64", "1/5"},
		{"0,0,64,64", "1/4"},
	}
	for i, v := range videos {
		from, to := names[perm[2*i]], names[perm[2*i+1]]
		at := uniform(r, 0, 500*time.Millisecond).Truncate(time.Millisecond)
		fmt.Fprintf(&sb, "at %s video %s -> %s rect=%s rate=%s as vid%d\n", ms(at), from, to, v.rect, v.rate, i)
	}
	for i := range videos {
		fmt.Fprintf(&sb, "at %s close vid%d\n", ms(confClose), i)
	}
	for i := range names {
		fmt.Fprintf(&sb, "at %s close conf[%d]\n", ms(confClose), i)
	}
	sb.WriteString("\nassert wires-drain\n")
	for i := range names {
		fmt.Fprintf(&sb, "assert min-segments conf[%d] 2000\n", i)
		fmt.Fprintf(&sb, "assert max-silence-pct conf[%d] 5\n", i)
	}
	return sb.String()
}

// Crowd sizes: one source and crowdViewers viewers split evenly over
// two fabrics joined by one bridge link.
const (
	crowdViewers  = 160
	crowdDuration = 1200 * time.Millisecond
	crowdClose    = 1000 * time.Millisecond
)

// genCrowd is a flash crowd: one speaking source, and viewers that
// join one k=8 replication tree in seeded waves (seeded order, sizes
// and gaps) across two bridged fabrics. Apart from the joins, most
// boxes only play out.
func genCrowd(seed uint64) string {
	r := newRNG(seed)
	viewers := boxNames("v", crowdViewers, 3)
	half := crowdViewers / 2
	var sb strings.Builder
	fmt.Fprintf(&sb, "# crowd: one source, %d viewers joining a k=8 replication tree in\n", crowdViewers)
	sb.WriteString("# seeded waves across two bridged fabrics.\n")
	fmt.Fprintf(&sb, "scenario crowd\nseed %d\nduration %s\n\n", seed, ms(crowdDuration))
	fmt.Fprintf(&sb, "box src mic=speech:%d:12000\n", seed+1)
	for _, v := range viewers {
		fmt.Fprintf(&sb, "box %s\n", v)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "link %s %s bw=155M\n", viewers[0], viewers[half])
	sb.WriteString("fabric fabA portbw=155M\nfabric fabB portbw=155M\n")
	fmt.Fprintf(&sb, "attach fabA src %s\n", strings.Join(viewers[:half], " "))
	fmt.Fprintf(&sb, "attach fabB %s\n\n", strings.Join(viewers[half:], " "))

	// The bridge ends join first, so every later wave can reach the
	// tree on either fabric.
	fmt.Fprintf(&sb, "at 0s tree src -> %s k=8 as main\n", viewers[0])
	fmt.Fprintf(&sb, "at 0s pull main %s\n", viewers[half])
	rest := make([]string, 0, crowdViewers-2)
	for i, v := range viewers {
		if i != 0 && i != half {
			rest = append(rest, v)
		}
	}
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	at := time.Duration(0)
	for len(rest) > 0 {
		at += uniform(r, 10*time.Millisecond, 30*time.Millisecond).Truncate(time.Millisecond)
		n := 8 + r.IntN(17)
		if n > len(rest) {
			n = len(rest)
		}
		fmt.Fprintf(&sb, "at %s pull main %s\n", ms(at), strings.Join(rest[:n], ","))
		rest = rest[n:]
	}
	fmt.Fprintf(&sb, "at %s close main\n", ms(crowdClose))
	fmt.Fprintf(&sb, "\nassert circuits src %d\n", crowdViewers)
	sb.WriteString("assert copies-max src 1\n")
	sb.WriteString("assert min-segments main 50\n")
	sb.WriteString("assert max-lost main 0\n")
	sb.WriteString("assert wires-drain\n")
	return sb.String()
}

// Overload sizes: a ten-relay tree, eight call boxes, 3.5 virtual
// seconds of which the last 700 ms idle.
const (
	ovRelays   = 10
	ovCallers  = 8
	ovDuration = 3500 * time.Millisecond
	ovClose    = 2800 * time.Millisecond
	ovCallLen  = 1500 * time.Millisecond
	ovFlood    = 700 * time.Millisecond
)

// genOverload is the overload ladder on a tight fabric (1 Mbit/s
// ports): a replication tree, seeded call arrivals under an admission
// budget, a full-rate video flood into the tree's root relay, the
// degradation controller, seeded cell-loss and jitter faults on the port
// of a viewer that receives only video, and one relay's server board
// crashing at a seeded time followed by a tree repair. The budget is the
// peak number of concurrent calls, so admission is consulted on every
// call and refuses none.
func genOverload(seed uint64) string {
	r := newRNG(seed)
	relays := boxNames("n", ovRelays, 2)
	callers := boxNames("c", ovCallers, 1)
	// n01 is an interior relay of the k=3 tree for every seed, so the
	// audio its crash costs is about the same whatever the seed.
	crashed := relays[1]
	crashFrom := uniform(r, 1200*time.Millisecond, 1600*time.Millisecond).Truncate(10 * time.Millisecond)
	crashTo := crashFrom + 800*time.Millisecond

	var sb strings.Builder
	sb.WriteString("# overload: tree + calls + full-rate video flood on 1 Mbit/s fabric ports,\n")
	sb.WriteString("# degradation, seeded loss/jitter on the flood, a relay crash and repair.\n")
	fmt.Fprintf(&sb, "scenario overload\nseed %d\nduration %s\n\n", seed, ms(ovDuration))
	fmt.Fprintf(&sb, "box src mic=speech:%d:12000\n", seed*16+1)
	sb.WriteString("box vsrc camera=128x128\nbox vw camera=128x128\n")
	for i, n := range relays {
		switch {
		case i == 0:
			fmt.Fprintf(&sb, "box %s camera=128x128\n", n)
		case n == crashed:
			fmt.Fprintf(&sb, "box %s crash=server:%s-%s\n", n, ms(crashFrom), ms(crashTo))
		default:
			fmt.Fprintf(&sb, "box %s\n", n)
		}
	}
	for i, c := range callers {
		fmt.Fprintf(&sb, "box %s mic=speech:%d:12000\n", c, seed*16+uint64(i)+2)
	}
	sb.WriteString("\nfabric fab portbw=1M egress=512\n")
	fmt.Fprintf(&sb, "attach fab src vsrc vw %s %s\n\n", strings.Join(relays, " "), strings.Join(callers, " "))
	// Faults hit port fab.p02, vw's: it receives only video, so the
	// audio survivors stay comparable with the fault-free twin.
	fmt.Fprintf(&sb, "faults loss,jitter,seed=%d,target=fab.p02\n", seed)
	sb.WriteString("degrade shed=200ms hold=600ms\n")

	// Calls: four seeded pairs with seeded arrivals; the second call's
	// callee is balancer-placed. Call length, like the flood's start, is
	// fixed so every seed does the same amount of work.
	type call struct {
		from, to string
		at, end  time.Duration
	}
	perm := r.Perm(ovCallers)
	var calls []call
	for i := 0; i < 4; i++ {
		c := call{from: callers[perm[2*i]], to: callers[perm[2*i+1]]}
		if i == 1 {
			c.to = "?"
		}
		c.at = uniform(r, 100*time.Millisecond, 900*time.Millisecond).Truncate(10 * time.Millisecond)
		c.end = c.at + ovCallLen
		calls = append(calls, c)
	}
	peak := 0
	for _, a := range calls {
		n := 0
		for _, b := range calls {
			if b.at <= a.at && a.at < b.end {
				n++
			}
		}
		if n > peak {
			peak = n
		}
	}
	fmt.Fprintf(&sb, "balance budget=%d interval=20ms migrate=0.4 cooldown=5s maxmig=1\n\n", peak)

	fmt.Fprintf(&sb, "at 0s tree src -> %s k=3 trees=1 as t\n", strings.Join(relays, ","))
	for i, c := range calls {
		fmt.Fprintf(&sb, "at %s call %s %s as k%d\n", ms(c.at), c.from, c.to, i)
	}
	fmt.Fprintf(&sb, "at %s video vsrc -> %s rect=0,0,128,128 rate=1/1 as v\n", ms(ovFlood), relays[0])
	fmt.Fprintf(&sb, "at %s video vsrc -> vw rect=0,0,64,64 rate=1/4 as vf\n", ms(uniform(r, 0, 400*time.Millisecond).Truncate(10*time.Millisecond)))
	fmt.Fprintf(&sb, "at %s repair t %s\n", ms(crashFrom+200*time.Millisecond), crashed)
	for i, c := range calls {
		fmt.Fprintf(&sb, "at %s close k%d\n", ms(c.end), i)
	}
	fmt.Fprintf(&sb, "at %s close v\n", ms(ovClose))
	fmt.Fprintf(&sb, "at %s close vf\n", ms(ovClose))
	fmt.Fprintf(&sb, "at %s close t\n", ms(ovClose))

	sb.WriteString("\nassert survivors-identical\n")
	sb.WriteString("assert rejected 0\n")
	sb.WriteString("assert no-audio-shed\n")
	sb.WriteString("assert video-shed\n")
	sb.WriteString("assert min-segments t 50\n")
	sb.WriteString("assert faults-fired\n")
	sb.WriteString("assert wires-drain\n")
	return sb.String()
}

// loopbackSession is the nominal wall-clock length of one node session.
const loopbackSession = 2 * time.Second

// genLoopback is a two-node audio conference for pandora-node: each
// node reads its box (mic workload, features) and the run length from
// this spec; the peer list comes from the command line.
func genLoopback(seed uint64) string {
	var sb strings.Builder
	sb.WriteString("# loopback: two pandora-node processes in an audio conference over UDP.\n")
	fmt.Fprintf(&sb, "scenario loopback\nseed %d\nduration %s\n\n", seed, ms(loopbackSession))
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&sb, "box n%02d mic=speech:%d:12000 jitter\n", i, seed*16+uint64(i)+1)
	}
	sb.WriteString("\nat 0s conference n00 n01 as conf\n")
	return sb.String()
}
