package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// projState is what the load generator knows about one project: the
// last acknowledged store version, the milestone targets acknowledged
// since the last acknowledged re-plan, the virtual "now" the last write
// reported, and which activities an /edit toggle has scaled. Only the
// project's owning connection writes it.
type projState struct {
	version    uint64
	milestones map[string]time.Time
	now        time.Time
	scaled     map[int]bool
	// standing is the first standing-seed /risk body seen; later ones
	// must match wherever the workload's writes leave the model alone.
	standing []byte
}

// generator sends ops over one connection and checks every response.
type generator struct {
	sp     spec
	seed   int64
	base   string
	conn   int
	client *http.Client
	meta   *fixtureMeta
	states []*projState
	// standingFixed says no write of the workload changes a project's
	// risk model, so standing-seed /risk bodies must never change.
	standingFixed bool
	// fresh and whatifs count the fresh-seed /risk and the /whatif
	// requests sent, from which their arguments are derived.
	fresh, whatifs int64

	// t0 is the timed window's start; samples records every op that
	// succeeded since.
	t0       time.Time
	samples  []sample
	attempts int
	failures int
	// observe, when set, sees every op's interval and cache outcome.
	observe func(o op, start, end time.Time, cache string)
	fails   *failLog
}

// failLog prints the first failures with their ops; the rest are only
// counted.
type failLog struct {
	mu sync.Mutex
	n  int
}

func (f *failLog) report(conn int, o op, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.n <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED conn %d op [%s]: %s\n", conn, o, fmt.Sprintf(format, args...))
	}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
}

func newStates(meta *fixtureMeta) []*projState {
	out := make([]*projState, len(meta.Projects))
	for i, pm := range meta.Projects {
		out[i] = &projState{version: pm.Version, now: pm.Finish,
			milestones: map[string]time.Time{}, scaled: map[int]bool{}}
	}
	return out
}

// request renders an op into its HTTP request, resolving state-dependent
// arguments.
func (d *generator) request(o op) (method, path string, body []byte) {
	pm := d.meta.Projects[o.proj]
	st := d.states[o.proj]
	pre := "/p/" + pm.ID + "/"
	switch o.kind {
	case "risk":
		seed := pm.RiskSeed
		if o.a == 1 {
			d.fresh++
			seed = freshSeed(d.seed, d.conn, d.fresh)
		}
		return "GET", pre + "risk?seed=" + itoa(seed) + "&trials=" + strconv.Itoa(d.sp.riskTrials), nil
	case "whatif":
		q := url.Values{}
		d.whatifs++
		for _, e := range o.edits {
			q.Add("edit", freshWhatIf(e, d.whatifs))
		}
		return "GET", pre + "whatif?" + q.Encode(), nil
	case "milestone":
		name, class, off := milestoneParams(o.a, o.b)
		q := url.Values{"name": {name}, "class": {class}, "target": {st.now.Add(off).UTC().Format(time.RFC3339)}}
		return "POST", pre + "milestone?" + q.Encode(), nil
	case "plan":
		return "POST", pre + "plan?hours=8", nil
	case "run":
		// Actuals come from the designer's /track, not auto-completion.
		return "POST", pre + "run?autocomplete=false", nil
	case "propagate":
		return "POST", pre + o.kind, nil
	case "track":
		const layout = "2006-01-02T15:04"
		fin := st.now.Truncate(time.Minute)
		csv := fmt.Sprintf("activity,start,finish,done\n%s,%s,%s,true\n", activities[o.a],
			fin.Add(-24*time.Hour).Format(layout), fin.Format(layout))
		return "POST", pre + "track", []byte(csv)
	case "edit":
		factor := "2"
		if st.scaled[o.a] {
			factor = "0.5"
		}
		return "POST", pre + "edit?spec=" + url.QueryEscape("e="+activities[o.a]+"*"+factor), nil
	default:
		return "GET", pre + o.kind, nil
	}
}

func freshSeed(seed int64, conn int, n int64) int64 {
	return 1<<40 + seed*1_000_000_000 + int64(conn)*100_000_000 + n
}

// do sends one op, times it, and checks the response. It reports
// whether the op succeeded.
func (d *generator) do(o op) bool {
	d.attempts++
	method, path, body := d.request(o)
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return d.fail(o, "build request: %v", err)
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	var rb []byte
	if err == nil {
		rb, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if err != nil {
		return d.fail(o, "%v", err)
	}
	cache := resp.Header.Get("X-Flowsched-Cache")
	if d.observe != nil {
		d.observe(o, start, end, cache)
	}
	if resp.StatusCode/100 != 2 {
		return d.fail(o, "status %d: %s", resp.StatusCode, strings.TrimSpace(string(rb)))
	}
	if err := d.check(o, resp, rb); err != nil {
		return d.fail(o, "%v", err)
	}
	kind := o.kind
	if o.kind == "risk" && o.a == 1 {
		kind = "risk.fresh"
	}
	d.samples = append(d.samples, sample{at: end.Sub(d.t0), class: o.class, kind: kind + cacheTag(cache), us: float64(end.Sub(start).Nanoseconds()) / 1e3})
	return true
}

// cacheTag labels a sample's kind with its serve cache outcome, for the
// per-kind diagnostics.
func cacheTag(cache string) string {
	if cache == "" {
		return ""
	}
	return "/" + cache
}

func (d *generator) fail(o op, format string, args ...any) bool {
	d.failures++
	d.fails.report(d.conn, o, format, args...)
	return false
}

// check validates a 2xx response: writes must advance the project's
// acknowledged version, risk bodies must describe the requested run,
// and every read must carry a body.
func (d *generator) check(o op, resp *http.Response, body []byte) error {
	st := d.states[o.proj]
	if o.class == classWrite {
		v, err := strconv.ParseUint(resp.Header.Get("X-Flowsched-Version"), 10, 64)
		if err != nil {
			return fmt.Errorf("write without a version: %v", err)
		}
		if v <= st.version {
			return fmt.Errorf("acknowledged version %d does not exceed the last acknowledged %d", v, st.version)
		}
		st.version = v
		if ns, err := strconv.ParseInt(resp.Header.Get("X-Flowsched-Now"), 10, 64); err == nil && o.kind == "run" {
			st.now = time.Unix(0, ns).UTC()
		}
		switch o.kind {
		case "plan":
			clear(st.milestones)
		case "milestone":
			name, _, off := milestoneParams(o.a, o.b)
			st.milestones[name] = st.now.Add(off).UTC().Truncate(time.Second)
		case "edit":
			st.scaled[o.a] = !st.scaled[o.a]
		}
		return nil
	}
	if len(body) == 0 {
		return fmt.Errorf("empty body")
	}
	switch o.kind {
	case "risk":
		var r struct {
			Trials int `json:"trials"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("risk body: %v", err)
		}
		if r.Trials != d.sp.riskTrials {
			return fmt.Errorf("risk ran %d trials, want %d", r.Trials, d.sp.riskTrials)
		}
		if o.a == 0 && d.standingFixed {
			if st.standing == nil {
				st.standing = body
			} else if !bytes.Equal(st.standing, body) {
				return fmt.Errorf("standing-seed risk body changed under writes that leave the model alone")
			}
		}
	case "whatif":
		s := string(body)
		if !strings.HasPrefix(s, "What-if sweep toward") {
			return fmt.Errorf("what-if body: %.60q", s)
		}
		for _, e := range o.edits {
			name, _, _ := strings.Cut(whatifMenu[e], "=")
			if !strings.Contains(s, name) {
				return fmt.Errorf("what-if report lacks scenario %q", name)
			}
		}
	}
	return nil
}

// sample is one successful op of the timed window: when it completed
// and how long it took.
type sample struct {
	at    time.Duration
	class int
	kind  string
	us    float64
}

// loopResult is one timed window's outcome over every connection.
type loopResult struct {
	samples []sample
	elapsed time.Duration
}

// warmLimit bounds the warm-up's wall time: a program that cannot send
// the warm-up's ops in this long fails the run rather than measuring it.
const warmLimit = 60 * time.Second

// runTimed runs each connection's cycle, repeating it, first for an
// untimed warm-up of warmOps ops on connection 0 (the hot set loads,
// caches fill; other connections stop with it), then calls atWarm, then
// runs the timed window, continuing where the warm-up stopped. The
// warm-up is an op count, not a time, so the state atWarm sees is the
// same however fast the program runs. stopWith names a connection whose
// end stops every other one in the window (track-durable's reader reads
// only while the writer runs); -1 = none.
func runTimed(ds []*generator, cyc [][]op, warmOps int, atWarm func() error, window time.Duration, stopWith int) (loopResult, error) {
	pos := make([]int, len(ds))
	// phase runs every connection until the deadline, until connection 0
	// has sent maxOps ops (0 = no limit), or until connection leader
	// stops (-1 = none). It returns connection 0's op count.
	phase := func(deadline time.Time, maxOps, leader int) (time.Duration, int) {
		var wg sync.WaitGroup
		var stop sync.Once
		stopped := make(chan struct{})
		start := time.Now()
		sent := 0
		for c, dr := range ds {
			wg.Add(1)
			go func(c int, dr *generator) {
				defer wg.Done()
				if c == leader {
					defer stop.Do(func() { close(stopped) })
				}
				for n := 0; ; n, pos[c] = n+1, pos[c]+1 {
					if c == 0 {
						sent = n
					}
					select {
					case <-stopped:
						return
					default:
					}
					if !time.Now().Before(deadline) || (c == 0 && maxOps > 0 && n == maxOps) {
						return
					}
					dr.do(cyc[c][pos[c]%len(cyc[c])])
				}
			}(c, dr)
		}
		wg.Wait()
		return time.Since(start), sent
	}
	var r loopResult
	if _, sent := phase(time.Now().Add(warmLimit), warmOps, 0); sent < warmOps {
		return r, fmt.Errorf("warm-up sent %d of %d ops in %v", sent, warmOps, warmLimit)
	}
	if err := atWarm(); err != nil {
		return r, err
	}
	t0 := time.Now()
	for _, d := range ds {
		d.samples, d.t0 = nil, t0
	}
	r.elapsed, _ = phase(t0.Add(window), 0, stopWith)
	for _, d := range ds {
		r.samples = append(r.samples, d.samples...)
	}
	return r, nil
}

// sliceStats holds a timed window cut into slices: the completed-op
// rate of each one-second slice, and each class's latencies cut into
// as many slices as give it minSliceSamples on average (at least one).
// Reporting the median over slices keeps one stall or burst from
// moving a run's figure.
type sliceStats struct {
	rate []float64
	lat  [numClasses][][]float64 // per class, per slice: latencies µs
}

const minSliceSamples = 50

func sliceSamples(samples []sample, window time.Duration, seconds int) sliceStats {
	var st sliceStats
	var count [numClasses]int
	for _, s := range samples {
		count[s.class]++
	}
	slot := func(at time.Duration, n int) int {
		return min(int(at*time.Duration(n)/window), n-1)
	}
	st.rate = make([]float64, seconds)
	for k := range st.lat {
		st.lat[k] = make([][]float64, max(1, min(seconds, count[k]/minSliceSamples)))
	}
	for _, s := range samples {
		st.rate[slot(s.at, seconds)]++
		lat := st.lat[s.class]
		i := slot(s.at, len(lat))
		lat[i] = append(lat[i], s.us)
	}
	for i := range st.rate {
		st.rate[i] /= window.Seconds() / float64(seconds)
	}
	return st
}

// quantileMS is the median over the class's slices of each slice's
// q-quantile, in ms (NaN when the class has no samples).
func (st sliceStats) quantileMS(class int, q float64) float64 {
	var per []float64
	for _, xs := range st.lat[class] {
		if len(xs) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return median(per) / 1e3
}
