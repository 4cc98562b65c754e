package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Latency classes: every op is timed into exactly one.
const (
	classRead  = iota // GET view routes
	classWrite        // POST routes, acknowledged after fsync
	classRisk         // GET /risk and /whatif
	numClasses
)

var classNames = [numClasses]string{"read", "write", "risk"}

// spec sizes one workload.
type spec struct {
	name string
	// projects in the fixture; history tracking cycles each, tail of
	// them past the last checkpoint.
	projects, history, tail int
	// resident is the registry budget in projects' worth of footprint;
	// 0 lets every project stay resident.
	resident int
	// setupReps is how many restarts setup_s takes the median of.
	setupReps int
	// riskTrials is the trial count of every /risk the workload sends.
	riskTrials int
	// conns is the closed-loop connection count (at most 2: nproc).
	conns int
	// warmOps is how many ops connection 0 sends in the untimed warm-up,
	// at the end of which rss_mb is read.
	warmOps int
	// traceOps is how many ops of each connection's cycle the traced
	// run sends, interleaved over its one connection.
	traceOps int
	// cycle derives one connection's op sequence from the seed.
	cycle func(sp spec, rng *rand.Rand, meta *fixtureMeta, conn int) []op
}

const (
	envRole     = "PERFBENCH_ROLE"
	envWorkload = "PERFBENCH_WORKLOAD"
	envSeed     = "PERFBENCH_SEED"
	envScale    = "PERFBENCH_SCALE"
	envRoot     = "PERFBENCH_ROOT"
)

var workloadNames = []string{"portfolio-read", "track-durable", "risk-whatif"}

// specFor returns the named workload's spec. scale "small" shrinks it to
// smoke-test size; "" is the benchmark size.
func specFor(name, scale string) (spec, error) {
	var sp spec
	switch name {
	case "portfolio-read":
		sp = spec{name: name, projects: 64, history: 12, tail: 2, resident: 32,
			setupReps: 5, riskTrials: 2000, conns: 1, warmOps: 600, traceOps: 600, cycle: portfolioCycle}
	case "track-durable":
		sp = spec{name: name, projects: 8, history: 150, tail: 10,
			setupReps: 5, riskTrials: 2000, conns: 2, warmOps: 120, traceOps: 96, cycle: trackCycle}
	case "risk-whatif":
		sp = spec{name: name, projects: 4, history: 150, tail: 10,
			setupReps: 5, riskTrials: 10000, conns: 1, warmOps: 600, traceOps: 600, cycle: riskCycle}
	default:
		return sp, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	switch scale {
	case "":
	case "small":
		sp.projects = max(2, sp.projects/12)
		sp.history, sp.tail = 3, 1
		sp.resident = min(sp.resident, sp.projects/2)
		sp.setupReps = 2
		sp.riskTrials = 500
		sp.warmOps = 30
		sp.traceOps = 20
	default:
		return sp, fmt.Errorf("unknown scale %q", scale)
	}
	return sp, nil
}

// op is one closed-loop request template. Arguments that depend on the
// server's state (milestone targets after runs advance the clock, the
// direction of an edit toggle, fresh risk seeds) are resolved when the
// op is sent, deterministically from the connection's history.
type op struct {
	kind  string // route: dashboard, status, ..., risk, whatif, milestone, plan, run, track, propagate, edit
	proj  int
	class int
	// a and b are kind-specific: milestone name and offset index; edit
	// activity index; risk 0 = standing seed, 1 = fresh seed; whatif
	// edit-menu indices in edits.
	a, b  int
	edits []int
}

func (o op) String() string {
	return fmt.Sprintf("%s p%03d %d %d %v", o.kind, o.proj, o.a, o.b, o.edits)
}

// digest fingerprints every connection's op sequence, so a changed seed
// visibly changes the workload.
func digest(cycles [][]op) string {
	h := sha256.New()
	for c, ops := range cycles {
		fmt.Fprintf(h, "conn %d\n", c)
		for _, o := range ops {
			fmt.Fprintln(h, o.String())
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var viewRoutes = []string{"dashboard", "status", "gantt", "milestones", "analyze"}

// activities are the ASIC flow's activities, the targets of /edit.
var activities = []string{"Synthesize", "Floorplan", "Route", "Extract", "DRC", "LVS", "STA", "GateSim"}

// whatifMenu is the edit vocabulary /whatif sweeps draw 2–4 from.
var whatifMenu = []string{
	"slowsyn=Synthesize*1.5", "stadelay=STA+4h", "drclvs=DRC*0.5;LVS*2",
	"fastroute=Route*0.75", "fplan=Floorplan+1d", "sim2x=GateSim*2", "par=parallel",
}

// freshWhatIf returns menu edit e with its first factor or delay moved
// to 0.8–1.2 times the menu's value, at the n-th point of a sequence
// that repeats only every 10007 requests. A designer sweeping a factor
// asks values not asked before, so no sweep repeats the fingerprint of
// one the fingerprint tier still holds, and every sweep runs.
func freshWhatIf(e int, n int64) string {
	s := whatifMenu[e]
	i := strings.IndexAny(s, "*+")
	if i < 0 {
		return s // parallel: no value
	}
	j := i + 1
	for j < len(s) && (s[j] == '.' || s[j] >= '0' && s[j] <= '9') {
		j++
	}
	v, err := strconv.ParseFloat(s[i+1:j], 64)
	if err != nil {
		panic(err)
	}
	f := 0.8 + 0.4*float64(n%10007*7919%10007)/10007
	return s[:i+1] + strconv.FormatFloat(v*f, 'f', 5, 64) + s[j:]
}

// owned returns the projects a connection owns: disjoint across
// connections.
func owned(meta *fixtureMeta, conns, conn int) []int {
	var out []int
	for i := range meta.Projects {
		if i%conns == conn {
			out = append(out, i)
		}
	}
	return out
}

// deck is a shuffled hand of unit kinds with exact counts: drawing one
// deck after another keeps every stretch of a sequence at the mix, so
// the mix does not vary by seed.
type deck struct {
	rng   *rand.Rand
	kinds []int
	hand  []int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for kind, n := range counts {
		for i := 0; i < n; i++ {
			d.kinds = append(d.kinds, kind)
		}
	}
	return d
}

func (d *deck) draw() int {
	if len(d.hand) == 0 {
		d.hand = append(d.hand, d.kinds...)
		d.rng.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	k := d.hand[0]
	d.hand = d.hand[1:]
	return k
}

// portfolioCycle: a manager watching many projects over one connection:
// a hot set of sixteen they keep coming back to, which stays resident,
// and a tail they scan round-robin, each tail read a load from disk that
// evicts (and checkpoints) the coldest resident project. Per deck of 100
// units: 66 hot view reads, 10 tail view reads, 8 tail view reads each
// followed by a /milestone write on that project, 14 standing-seed /risk
// and 2 /milestone writes on hot projects (which invalidate their memo,
// so the next /risk is a fingerprint hit).
//
// Decks fix the mix exactly. With Zipf-sampled projects and an LRU
// budget the share of loads varied with the seed, and read p90 moved
// between renders and loads; hot writes are kept few so that read p50
// stays inside the memo hits. One connection keeps the LRU order
// deterministic: with two, one connection's tail loads could evict the
// other's hot projects while it waited on a load.
func portfolioCycle(sp spec, rng *rand.Rand, meta *fixtureMeta, conn int) []op {
	mine := owned(meta, sp.conns, conn)
	rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
	nHot := min(portfolioHot, len(mine)/2) // smoke-test fixtures are smaller
	hot, tail := mine[:nHot], mine[nHot:]
	mix, routes := newDeck(rng, 66, 10, 8, 14, 2), newDeck(rng, 1, 1, 1, 1, 1)
	hots := newDeck(rng, ones(len(hot))...)
	milestone := func(p int) op {
		return op{kind: "milestone", class: classWrite, proj: p,
			a: rng.Intn(len(milestoneNames)), b: rng.Intn(len(milestoneOffsets))}
	}
	ops := make([]op, 0, 2000)
	for next := 0; len(ops) < cap(ops); {
		switch u := mix.draw(); u {
		case 0:
			ops = append(ops, op{kind: viewRoutes[routes.draw()], class: classRead, proj: hot[hots.draw()]})
		case 1, 2:
			p := tail[next%len(tail)]
			next++
			ops = append(ops, op{kind: viewRoutes[routes.draw()], class: classRead, proj: p})
			if u == 2 {
				ops = append(ops, milestone(p))
			}
		case 3:
			ops = append(ops, op{kind: "risk", class: classRisk, proj: hot[hots.draw()]})
		case 4:
			ops = append(ops, milestone(hot[hots.draw()]))
		}
	}
	return ops
}

// portfolioHot is the portfolio hot set. The budget holds it plus as
// many tail projects, so the least recently used project is always a
// tail project.
const portfolioHot = 16

// ones returns n ones: a deck holding each of n items once.
func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// trackCycle: connection 0 runs the paper's tracking loop over every
// project in a seeded order (re-plan, tracked run, actuals, milestone,
// propagate, warm risk); connection 1 reads the same projects' status
// and dashboard, with one in ten reads the warm standing-seed /risk a
// dashboard shows. (The writer alone completes about ten cycles a
// second with fsync on, too few risk samples for a steady p90.) The
// reader stops when the writer does.
func trackCycle(sp spec, rng *rand.Rand, meta *fixtureMeta, conn int) []op {
	all := owned(meta, 1, 0)
	var ops []op
	if conn == 0 {
		acts := newDeck(rng, ones(len(activities))...)
		for round := 0; round < 20; round++ {
			order := append([]int(nil), all...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, p := range order {
				ops = append(ops,
					op{kind: "plan", class: classWrite, proj: p},
					op{kind: "run", class: classWrite, proj: p},
					op{kind: "track", class: classWrite, proj: p, a: acts.draw()},
					op{kind: "milestone", class: classWrite, proj: p,
						a: rng.Intn(len(milestoneNames)), b: rng.Intn(len(milestoneOffsets))},
					op{kind: "propagate", class: classWrite, proj: p},
					op{kind: "risk", class: classRisk, proj: p})
			}
		}
		return ops
	}
	// Per deck of ten: 7 status, 2 dashboard, 1 risk. Most reads are
	// memo hits; status misses cost about what hits do, while dashboard
	// misses cost several times more, so dashboards stay few enough that
	// the read p90 does not sit on the edge of their misses.
	mix, projects := newDeck(rng, 7, 2, 1), newDeck(rng, ones(len(all))...)
	for len(ops) < 2000 {
		p := all[projects.draw()]
		switch mix.draw() {
		case 0:
			ops = append(ops, op{kind: "status", class: classRead, proj: p})
		case 1:
			ops = append(ops, op{kind: "dashboard", class: classRead, proj: p})
		case 2:
			ops = append(ops, op{kind: "risk", class: classRisk, proj: p})
		}
	}
	return ops
}

// riskCycle: planning under uncertainty on a few resident projects.
// Each deck of 45 units: 2 fresh-seed E6-size /risk (full kernel), 18
// activity edits each followed by a /dashboard, a third of them then by
// a standing-seed /risk (incremental re-sampling, or a fingerprint hit
// when the toggles revisit a state), and 25 /whatif sweeps of 2–4 edits
// with fresh values (see freshWhatIf). Every /dashboard directly follows
// a write, so reads are all view builds and renders of a fresh version,
// not a mix of memo hits and misses. Sweeps make up most of the risk
// class, so its p50 and p90 both fall inside their latencies. Risk runs
// stay a minority of it because each leaves its trial streams in the
// project's memo, which is what the server's memory grows with; /whatif
// leaves nothing behind. No write here adds a store entry: each
// milestone write does, and the milestone report's cost grows with
// them, so a run's figures would follow how many ops it completed.
func riskCycle(sp spec, rng *rand.Rand, meta *fixtureMeta, conn int) []op {
	mine := owned(meta, sp.conns, conn)
	mix := newDeck(rng, 2, 6, 12, 25)
	projects, acts := newDeck(rng, ones(len(mine))...), newDeck(rng, ones(len(activities))...)
	var ops []op
	for n := 0; len(ops) < 1000; n++ {
		p := mine[projects.draw()]
		switch mix.draw() {
		case 0:
			ops = append(ops, op{kind: "risk", class: classRisk, proj: p, a: 1})
		case 1:
			ops = append(ops,
				op{kind: "edit", class: classWrite, proj: p, a: acts.draw()},
				op{kind: "dashboard", class: classRead, proj: p},
				op{kind: "risk", class: classRisk, proj: p})
		case 2:
			ops = append(ops,
				op{kind: "edit", class: classWrite, proj: p, a: acts.draw()},
				op{kind: "dashboard", class: classRead, proj: p})
		case 3:
			ops = append(ops, op{kind: "whatif", class: classRisk, proj: p, edits: rng.Perm(len(whatifMenu))[:2+n%3]})
		}
	}
	return ops
}

// cycles derives every connection's op sequence from the seed.
func cycles(sp spec, seed int64, meta *fixtureMeta) [][]op {
	out := make([][]op, sp.conns)
	for c := range out {
		out[c] = sp.cycle(sp, rand.New(rand.NewSource(seed*7919+int64(c))), meta, c)
	}
	return out
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
