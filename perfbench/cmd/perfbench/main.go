// Command perfbench is the repository benchmark: end-to-end runs of the
// durable multi-project host over loopback HTTP, and a traced run that
// times each layer's public calls. See ../../README.md.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 --server PATH [--work DIR]
//
// The last line of standard output is the result: {"correct", "attempted",
// "failed", "metrics"}. Diagnostics go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	work     string
	scale    string
}

func main() {
	if os.Getenv(envRole) == "fixture" {
		os.Exit(fixtureMain())
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: portfolio-read | track-durable | risk-whatif")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the fixture and op sequences derive from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.server, "server", "", "flowbenchd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for fixtures and server roots")
	flag.StringVar(&cfg.scale, "scale", "", `"small" shrinks every workload to smoke-test size`)
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(cfg config) (*result, error) {
	sp, err := specFor(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: want >= 1", cfg.seconds)
	}
	dir, err := filepath.Abs(filepath.Join(cfg.work, sp.name))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	pristine := filepath.Join(dir, "fixture", "root")
	meta, err := makeFixture(cfg, pristine)
	if err != nil {
		return nil, err
	}
	cyc := cycles(sp, cfg.seed, meta)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d projects, op-sequence digest %s\n",
		sp.name, cfg.seed, len(meta.Projects), digest(cyc))
	var res *result
	if cfg.trace {
		res, err = runTraced(cfg, sp, meta, cyc, dir, pristine)
	} else {
		res, err = runE2E(cfg, sp, meta, cyc, dir, pristine)
	}
	if err == nil {
		printMetrics(sp.name, res)
		err = os.RemoveAll(dir)
	}
	return res, err
}

// makeFixture generates the workload's durable fixture in a child
// process (so the abandoned projects' WAL tails stay on disk and none of
// the generator's heap stays in this one) and syncs it to disk.
func makeFixture(cfg config, root string) (*fixtureMeta, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), envRole+"=fixture", envWorkload+"="+cfg.workload,
		envSeed+"="+strconv.FormatInt(cfg.seed, 10), envScale+"="+cfg.scale, envRoot+"="+root)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("generate fixture: %w", err)
	}
	var meta fixtureMeta
	if err := readJSON(filepath.Join(root, "..", "meta.json"), &meta); err != nil {
		return nil, err
	}
	syscall.Sync()
	return &meta, nil
}

// budgetFor sizes the registry budget to hold sp.resident projects of
// median footprint.
func budgetFor(sp spec, meta *fixtureMeta) int64 {
	if sp.resident == 0 {
		return 0
	}
	fp := make([]float64, len(meta.Projects))
	for i, pm := range meta.Projects {
		fp[i] = float64(pm.Footprint)
	}
	return int64(median(fp) * float64(sp.resident))
}

func runE2E(cfg config, sp spec, meta *fixtureMeta, cyc [][]op, dir, pristine string) (*result, error) {
	fails := &failLog{}
	budget := budgetFor(sp, meta)
	paths := probePaths(sp, cfg.seed, meta)
	ref := filepath.Join(dir, "ref")
	if err := copyTree(pristine, ref); err != nil {
		return nil, err
	}
	want, err := inprocBodies(ref, paths)
	if err != nil {
		return nil, err
	}

	// Setup: restart-to-ready over a fresh copy of the fixture, several
	// times; the last server carries on into the timed phase.
	live := filepath.Join(dir, "live")
	var setups []float64
	var srv *server
	for r := 0; r < sp.setupReps; r++ {
		if srv != nil {
			srv.kill()
		}
		if err := copyTree(pristine, live); err != nil {
			return nil, err
		}
		runtime.GC()
		var d time.Duration
		if srv, d, err = restart(cfg.server, live, budget, meta); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	alive := srv
	defer func() {
		if alive != nil {
			alive.kill()
		}
	}()

	served, err := httpBodies(srv.base, paths)
	if err != nil {
		return nil, err
	}
	attempted, failed := len(paths), compareBodies("pre-run", served, want, fails)
	states := newStates(meta)
	if err := prepareWorkload(sp, srv.base, meta); err != nil {
		return nil, err
	}
	ds := make([]*generator, sp.conns)
	for c := range ds {
		ds[c] = &generator{sp: sp, seed: cfg.seed, base: srv.base, conn: c, client: newClient(),
			meta: meta, states: states, standingFixed: sp.name == "portfolio-read", fails: fails}
	}
	stopWith := -1
	if sp.name == "track-durable" {
		stopWith = 0
	}
	// The load generator keeps to one P while timing, so its scheduling
	// and GC compete less with the server for the two CPUs.
	// rss_mb is read at the end of the warm-up, a fixed point of the op
	// sequence: the server's memory grows with the risk runs it has
	// served, so a read after the timed window would grow with speed.
	var rss float64
	readRSS := func() (err error) {
		rss, err = srv.peakRSSMB()
		return err
	}
	runtime.GC()
	procs := runtime.GOMAXPROCS(1)
	lr, err := runTimed(ds, cyc, sp.warmOps, readRSS, time.Duration(cfg.seconds)*time.Second, stopWith)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		attempted += d.attempts
		failed += d.failures
	}
	st := sliceSamples(lr.samples, lr.elapsed, cfg.seconds)
	for k := 0; k < numClasses; k++ {
		if v := st.quantileMS(k, 0.5); v != v {
			return nil, fmt.Errorf("too few %s ops completed in the timed phase", classNames[k])
		}
	}

	// Post-run: undo edits (their tool rebinding is not durable), then
	// check the live server's probes against an in-process render over a
	// copy of what a crash leaves on disk, and restart over that state to
	// check that every acknowledged write survived.
	if sp.name == "risk-whatif" {
		a, f := restoreEdits(ds)
		attempted, failed = attempted+a, failed+f
	}
	served, err = httpBodies(srv.base, paths)
	if err != nil {
		return nil, err
	}
	srv.kill()
	alive = nil
	after := filepath.Join(dir, "after")
	if err := copyTree(live, after); err != nil {
		return nil, err
	}
	if want, err = inprocBodies(after, paths); err != nil {
		return nil, err
	}
	attempted += len(paths)
	failed += compareBodies("post-run", served, want, fails)
	s2, err := startServer(cfg.server, live, budget)
	if err != nil {
		return nil, err
	}
	checks, bad := checkDurable(s2.base, meta, states, fails)
	s2.kill()
	attempted, failed = attempted+checks, failed+bad

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{
		"setup_s":      {median(setups), "s"},
		"ops_per_s":    {median(st.rate), "1/s"},
		"ok_ratio":     {float64(attempted-failed) / float64(attempted), "ratio"},
		"read_p50_ms":  {st.quantileMS(classRead, 0.5), "ms"},
		"read_p90_ms":  {st.quantileMS(classRead, 0.9), "ms"},
		"write_p50_ms": {st.quantileMS(classWrite, 0.5), "ms"},
		"write_p90_ms": {st.quantileMS(classWrite, 0.9), "ms"},
		"risk_p50_ms":  {st.quantileMS(classRisk, 0.5), "ms"},
		"risk_p90_ms":  {st.quantileMS(classRisk, 0.9), "ms"},
		"rss_mb":       {rss, "MB"},
	}}
	var n [numClasses]int
	for _, s := range lr.samples {
		n[s.class]++
	}
	fmt.Fprintf(os.Stderr, "perfbench: setups %.3f s; samples read %d write %d risk %d over %.2f s\n",
		setups, n[classRead], n[classWrite], n[classRisk], lr.elapsed.Seconds())
	printKinds(lr.samples)
	return res, nil
}

// prepareWorkload does the untimed per-workload set-up after readiness:
// track-durable gets a propagate schedule on every project, fired by
// runs advancing the virtual clock.
func prepareWorkload(sp spec, base string, meta *fixtureMeta) error {
	if sp.name != "track-durable" {
		return nil
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, pm := range meta.Projects {
		resp, err := c.Post(base+"/p/"+pm.ID+"/schedules?kind=every&every=72h&action=propagate", "", nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("schedule on %s: status %d", pm.ID, resp.StatusCode)
		}
	}
	return nil
}

// restoreEdits toggles every scaled activity back, so the live tool
// profiles match what recovery rebuilds.
func restoreEdits(ds []*generator) (attempted, failed int) {
	for _, d := range ds {
		a0, f0 := d.attempts, d.failures
		for p, st := range d.states {
			if p%d.sp.conns != d.conn {
				continue
			}
			for act := range activities {
				if st.scaled[act] {
					d.do(op{kind: "edit", class: classWrite, proj: p, a: act})
				}
			}
		}
		attempted += d.attempts - a0
		failed += d.failures - f0
	}
	return attempted, failed
}

// printKinds prints each op kind's share and latency quantiles, the
// modes each class's percentiles are drawn from.
func printKinds(samples []sample) {
	byKind := map[string][]float64{}
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s.us)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := byKind[k]
		fmt.Fprintf(os.Stderr, "  %-10s n %6d  p10 %8.3f  p50 %8.3f  p90 %8.3f ms\n", k, len(xs),
			quantile(xs, 0.1)/1e3, quantile(xs, 0.5)/1e3, quantile(xs, 0.9)/1e3)
	}
}

func printMetrics(name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-14s %-40s %14.4f %s\n", name, k, m.Value, m.Unit)
	}
}
