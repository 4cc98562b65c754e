package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"flowsched/internal/persist"
	"flowsched/internal/serve"
	"flowsched/perfbench/internal/benchhost"
)

// span is one traced interval: an op, a filesystem call attributed to
// the op containing it, or a call into a layer's public Go API. Name is
// "<layer>.<call>".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(parent, opID int, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: opID, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return id
}

// time runs fn inside a span and returns its duration.
func (l *spanLog) time(parent int, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	l.add(parent, 0, name, start, end)
	return end.Sub(start), err
}

// selfTimes sums each layer's self time: a span's duration minus the
// part its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	child := map[int]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// httpPhase is one single-connection pass of the workload's op
// sequences against an in-process host.
type httpPhase struct {
	ops       []opSpan
	fs        []fsSpan
	samples   []sample
	elapsed   time.Duration
	cache     map[string]int // X-Flowsched-Cache outcome → count, view/risk reads
	riskReads int
	loads     float64
	evictions float64
	syncs     int64
	written   int64
	attempts  int
	failures  int
}

type opSpan struct {
	o          op
	start, end time.Time
	cache      string
}

// tracedOps interleaves the first n ops of every connection's cycle,
// round-robin, into the one connection the traced run drives.
func tracedOps(cyc [][]op, n int) (ops []op, conns []int) {
	for i := 0; i < n; i++ {
		for c := range cyc {
			ops = append(ops, cyc[c][i%len(cyc[c])])
			conns = append(conns, c)
		}
	}
	return ops, conns
}

// runHTTPPhase serves root in-process (the benchmark server's options),
// readies every project, and sends ops over one connection. With cfs nil
// it is the untraced pass: the WAL uses the plain filesystem and only
// the generator's own samples are kept. With cfs set, the WAL writes
// through it, cfs keeps a span per disk call, and every op's interval
// and cache outcome is kept.
func runHTTPPhase(cfg config, sp spec, meta *fixtureMeta, ops []op, conns []int, root string, cfs *countFS, fails *failLog) (*httpPhase, error) {
	var fs persist.FS
	if cfs != nil {
		fs = cfs
	}
	h, err := serve.NewHost(benchhost.HostOptions(root, budgetFor(sp, meta), fs), benchhost.ServeOptions(""))
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- h.Serve(l) }()
	defer func() {
		h.Shutdown(context.Background())
		<-served
	}()
	base := "http://" + l.Addr().String()
	if err := awaitReady(base, meta); err != nil {
		return nil, err
	}
	if err := prepareWorkload(sp, base, meta); err != nil {
		return nil, err
	}
	loads0, evict0, err := hostCounters(base)
	if err != nil {
		return nil, err
	}
	ph := &httpPhase{cache: map[string]int{}}
	client := newClient()
	defer client.CloseIdleConnections()
	states := newStates(meta)
	var observe func(o op, start, end time.Time, cache string)
	if cfs != nil {
		observe = func(o op, start, end time.Time, cache string) {
			ph.ops = append(ph.ops, opSpan{o: o, start: start, end: end, cache: cache})
		}
	}
	ds := make([]*generator, sp.conns)
	for c := range ds {
		ds[c] = &generator{sp: sp, seed: cfg.seed, base: base, conn: c, client: client, meta: meta,
			states: states, standingFixed: sp.name == "portfolio-read", fails: fails, observe: observe}
	}
	var syncs0, written0 int64
	if cfs != nil {
		syncs0, _, written0 = cfs.snapshot()
		cfs.record(true)
	}
	start := time.Now()
	for i, o := range ops {
		ds[conns[i]].do(o)
	}
	ph.elapsed = time.Since(start)
	if cfs != nil {
		cfs.record(false)
		ph.fs = cfs.takeSpans()
		syncs1, _, written1 := cfs.snapshot()
		ph.syncs, ph.written = syncs1-syncs0, written1-written0
	}
	loads1, evict1, err := hostCounters(base)
	if err != nil {
		return nil, err
	}
	ph.loads, ph.evictions = loads1-loads0, evict1-evict0
	for _, d := range ds {
		ph.attempts += d.attempts
		ph.failures += d.failures
		ph.samples = append(ph.samples, d.samples...)
	}
	for _, s := range ph.ops {
		if s.cache != "" {
			ph.cache[s.cache]++
		}
		if s.o.kind == "risk" || s.o.kind == "whatif" {
			ph.riskReads++
		}
	}
	return ph, nil
}

// hostCounters sums the registry's load and eviction counters from the
// host's /metrics.
func hostCounters(base string) (loads, evictions float64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var dst *float64
		switch {
		case strings.HasPrefix(line, "host_project_loads_total{"):
			dst = &loads
		case strings.HasPrefix(line, "host_project_evictions_total{"):
			dst = &evictions
		default:
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("metrics line %q: %v", line, err)
		}
		*dst += v
	}
	return loads, evictions, sc.Err()
}

// attribute turns a recorded phase into spans: one per op, each disk
// call as a child of the op whose interval contains it. It checks the
// ack-after-flush property — every write's fsyncs end before its
// response arrives, so no fsync falls outside an op — and returns the
// number of violations.
func attribute(log *spanLog, ph *httpPhase, fails *failLog) (violations int) {
	sort.Slice(ph.fs, func(i, j int) bool { return ph.fs[i].start.Before(ph.fs[j].start) })
	k := 0
	for i, s := range ph.ops {
		id := log.add(0, i+1, "serve."+s.o.kind, s.start, s.end)
		syncs := 0
		for ; k < len(ph.fs) && ph.fs[k].start.Before(s.end); k++ {
			f := ph.fs[k]
			if f.start.Before(s.start) || f.end.After(s.end) {
				if f.name == "sync" {
					violations++
					fails.report(-1, s.o, "fsync outside any op interval: flushed after an acknowledgement")
				}
				continue
			}
			log.add(id, i+1, "persist."+f.name, f.start, f.end)
			if f.name == "sync" {
				syncs++
			}
		}
		if s.o.class == classWrite && syncs == 0 {
			violations++
			fails.report(-1, s.o, "write acknowledged with no fsync inside its interval")
		}
	}
	for ; k < len(ph.fs); k++ {
		if ph.fs[k].name == "sync" {
			violations++
			fails.report(-1, op{kind: "after-last-op"}, "fsync after the last acknowledgement")
		}
	}
	return violations
}

func runTraced(cfg config, sp spec, meta *fixtureMeta, cyc [][]op, dir, pristine string) (*result, error) {
	fails := &failLog{}
	ops, conns := tracedOps(cyc, sp.traceOps)
	log := &spanLog{t0: time.Now()}

	// The untraced pass prices the tracing; the traced pass runs on its
	// own copy of the fixture so both start from the same state.
	var phases [2]*httpPhase
	for i, cfs := range []*countFS{nil, {}} {
		root := filepath.Join(dir, fmt.Sprintf("http%d", i))
		if err := copyTree(pristine, root); err != nil {
			return nil, err
		}
		ph, err := runHTTPPhase(cfg, sp, meta, ops, conns, root, cfs, fails)
		if err != nil {
			return nil, err
		}
		phases[i] = ph
	}
	plain, traced := phases[0], phases[1]
	attempted := plain.attempts + traced.attempts
	failed := plain.failures + traced.failures + attribute(log, traced, fails)
	attempted += len(traced.ops)

	// Layer calls through the public Go API, on a further copy so they
	// never warm the caches the HTTP ops hit.
	lm, err := measureLayers(cfg, sp, meta, dir, pristine, log)
	if err != nil {
		return nil, err
	}

	n := float64(len(ops))
	var hitUS, coldUS []float64
	for _, s := range plain.samples {
		switch {
		case strings.HasSuffix(s.kind, "/hit"):
			hitUS = append(hitUS, s.us)
		case strings.HasSuffix(s.kind, "/miss"):
			coldUS = append(coldUS, s.us)
		}
	}
	reads := float64(traced.cache["hit"] + traced.cache["miss"] + traced.cache["fingerprint"])
	m := lm.metrics
	m["serve.memo_hit_ratio"] = metric{ratio(float64(traced.cache["hit"]), reads), "ratio"}
	m["serve.fp_hit_ratio"] = metric{ratio(float64(traced.cache["fingerprint"]), float64(traced.riskReads)), "ratio"}
	m["serve.hit_us"] = metric{orZero(median(hitUS)), "us"}
	m["serve.cold_us"] = metric{orZero(median(coldUS)), "us"}
	m["host.loads_per_kop"] = metric{traced.loads / n * 1000, "count"}
	m["host.evictions_per_kop"] = metric{traced.evictions / n * 1000, "count"}
	m["count.http_fsyncs"] = metric{float64(traced.syncs), "count"}
	m["count.http_bytes_written"] = metric{float64(traced.written), "bytes"}
	m["count.memo_hits"] = metric{float64(traced.cache["hit"]), "count"}
	m["count.fp_hits"] = metric{float64(traced.cache["fingerprint"]), "count"}
	m["count.loads"] = metric{traced.loads, "count"}
	m["count.evictions"] = metric{traced.evictions, "count"}
	m["trace.overhead_us_per_op"] = metric{float64((traced.elapsed - plain.elapsed).Nanoseconds()) / 1e3 / n, "us"}
	self := log.selfTimes()
	for _, layer := range traceLayers {
		m["self_ms."+layer] = metric{float64(self[layer].Nanoseconds()) / 1e6, "ms"}
	}

	tracePath := filepath.Join(filepath.Dir(dir), fmt.Sprintf("%s-seed%d.trace.json", sp.name, cfg.seed))
	if err := writeJSON(tracePath, log.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(log.spans), tracePath)
	fmt.Fprintf(os.Stderr, "perfbench: layer self time over the traced run (ms):")
	for _, layer := range traceLayers {
		fmt.Fprintf(os.Stderr, " %s %.1f", layer, float64(self[layer].Nanoseconds())/1e6)
	}
	fmt.Fprintf(os.Stderr, "\nperfbench: tracing overhead %.1f us/op (traced %.3f s vs untraced %.3f s over %d ops)\n",
		m["trace.overhead_us_per_op"].Value, traced.elapsed.Seconds(), plain.elapsed.Seconds(), len(ops))
	attempted += lm.attempted
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// traceLayers are the layers whose self time the traced run reports.
var traceLayers = []string{"serve", "persist", "host", "view", "engine", "store", "monte", "scenario", "obs"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}
