package main

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"flowsched"
	"flowsched/internal/host"
	"flowsched/internal/scenario"
	"flowsched/internal/serve"
	"flowsched/perfbench/internal/benchhost"
)

// layerResult is what the direct layer calls measure. Any failed call
// aborts the run, so there is no failure count.
type layerResult struct {
	metrics   map[string]metric
	attempted int
}

// e6Trials is the E6 experiment's trial count, used for every kernel
// measurement so workloads compare.
const e6Trials = 10000

// writeOps are the facade writes the persist and engine metrics price,
// in tracking-loop order.
var writeOps = []string{"plan", "run", "track", "milestone", "propagate", "edit"}

// facadeWrite performs one tracking-loop write through the facade.
func facadeWrite(p *flowsched.Project, kind string, round int) error {
	switch kind {
	case "plan":
		_, err := p.Plan(benchhost.Targets, flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{})
		return err
	case "run":
		_, err := p.RunWith(benchhost.Targets, flowsched.RunOptions{})
		return err
	case "track":
		const layout = "2006-01-02T15:04"
		fin := p.Now().Truncate(time.Minute)
		_, err := p.ImportActualsCSV(strings.NewReader(fmt.Sprintf("%s,%s,%s,true\n",
			activities[round%len(activities)], fin.Add(-24*time.Hour).Format(layout), fin.Format(layout))))
		return err
	case "milestone":
		name, class, off := milestoneParams(round%len(milestoneNames), round%len(milestoneOffsets))
		return p.SetMilestone(name, class, p.Now().Add(off))
	case "propagate":
		_, err := p.Propagate()
		return err
	case "edit":
		factor := []string{"2", "0.5"}[round%2]
		e, err := flowsched.ParseScenarioEdit("e=" + activities[0] + "*" + factor)
		if err != nil {
			return err
		}
		return p.ApplyScenarioEdit(e)
	}
	return fmt.Errorf("unknown write %q", kind)
}

// measureLayers times calls into each layer's public Go API on copies of
// the fixture the HTTP passes never touch, each call a span.
func measureLayers(cfg config, sp spec, meta *fixtureMeta, dir, pristine string, log *spanLog) (*layerResult, error) {
	res := &layerResult{metrics: map[string]metric{}}
	m := res.metrics
	root := filepath.Join(dir, "layers")
	if err := copyTree(pristine, root); err != nil {
		return nil, err
	}
	sample := meta.Projects[:min(4, len(meta.Projects))]
	pdir := func(pm projectMeta) string { return filepath.Join(root, pm.ID) }
	cfs := &countFS{}

	// persist: recovery of the sample (checkpoint load + WAL-tail
	// replay) through flowsched.Open, fsync on.
	var openTime time.Duration
	var tail uint64
	opened := make([]*flowsched.Project, len(sample))
	for i, pm := range sample {
		d, err := log.time(0, "persist.open", func() error {
			var err error
			opened[i], err = flowsched.Open(pdir(pm), "", benchhost.ProjectOptions(), flowsched.PersistOptions{FS: cfs})
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := opened[i].UseSimulatedTools(); err != nil {
			return nil, err
		}
		openTime += d
		tail += pm.TailRecords
	}
	m["persist.replay_records"] = metric{float64(tail), "count"}
	m["persist.replay_ms_per_krec"] = metric{ms(openTime) / (float64(tail) / 1000), "ms"}
	p := opened[0]
	for _, q := range opened[1:] {
		if err := q.Close(); err != nil {
			return nil, err
		}
	}
	pm := sample[0]

	// host: Registry.Get of non-resident projects on a second copy.
	hostRoot := filepath.Join(dir, "layers-host")
	if err := copyTree(pristine, hostRoot); err != nil {
		return nil, err
	}
	reg, err := host.NewRegistry(benchhost.HostOptions(hostRoot, 0, nil))
	if err != nil {
		return nil, err
	}
	var loadMS []float64
	for _, s := range sample {
		var hd *host.Handle
		d, err := log.time(0, "host.load", func() error {
			var err error
			hd, err = reg.Get(s.ID)
			return err
		})
		if err != nil {
			return nil, err
		}
		hd.Release()
		loadMS = append(loadMS, ms(d))
	}
	if err := reg.Close(); err != nil {
		return nil, err
	}
	m["host.load_ms"] = metric{median(loadMS), "ms"}

	// view: snapshot build, and each render on a fresh view (store
	// decode included).
	var buildUS []float64
	for i := 0; i < 50; i++ {
		d, err := log.time(0, "view.build", func() error { _, err := p.View(); return err })
		if err != nil {
			return nil, err
		}
		buildUS = append(buildUS, us(d))
	}
	m["view.build_us"] = metric{median(buildUS), "us"}
	renders := map[string]func(v *flowsched.ProjectView) error{
		"dashboard":  func(v *flowsched.ProjectView) error { _, err := v.Dashboard(); return err },
		"status":     func(v *flowsched.ProjectView) error { _, err := v.Status(); return err },
		"gantt":      func(v *flowsched.ProjectView) error { _, err := v.Gantt(); return err },
		"milestones": func(v *flowsched.ProjectView) error { _, err := v.MilestoneReport(); return err },
		"analyze":    func(v *flowsched.ProjectView) error { _, err := v.Analyze(); return err },
	}
	for _, name := range viewRoutes {
		var xs []float64
		for i := 0; i < 20; i++ {
			v, err := p.View()
			if err != nil {
				return nil, err
			}
			d, err := log.time(0, "view.render_"+name, func() error { return renders[name](v) })
			if err != nil {
				return nil, err
			}
			xs = append(xs, us(d))
		}
		m["view.render_us."+name] = metric{median(xs), "us"}
	}
	m["view.allocs.dashboard"] = metric{allocsPerRun(20, func() error {
		v, err := p.View()
		if err != nil {
			return err
		}
		return renders["dashboard"](v)
	}), "count"}

	// obs: a memo-hit /dashboard with request observability on, against
	// the same server shape with it off.
	on, off := serve.New(p, benchhost.ServeOptions("")), serve.New(p, serve.Options{DisableRequestObs: true})
	var onT, offT time.Duration
	for i := 0; i < 1000; i++ {
		for j, s := range []*serve.Server{on, off} {
			rec := httptest.NewRecorder()
			name := []string{"obs.request_on", "obs.request_off"}[j]
			d, _ := log.time(0, name, func() error {
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/dashboard", nil))
				return nil
			})
			res.attempted++
			if rec.Code != 200 {
				return nil, fmt.Errorf("in-process /dashboard: status %d", rec.Code)
			}
			if i > 0 { // the first request of each fills its memo
				if j == 0 {
					onT += d
				} else {
					offT += d
				}
			}
		}
	}
	on.CloseStreams()
	off.CloseStreams()
	m["obs.request_overhead_ratio"] = metric{float64(onT) / float64(offT), "ratio"}

	// monte: fresh-seed kernel throughput and allocations, then the
	// incremental reuse after single-activity edits at the standing seed.
	var kernel []float64
	var sampled, reused int64
	for i := 0; i < 5; i++ {
		v, err := p.View()
		if err != nil {
			return nil, err
		}
		d, err := log.time(0, "monte.simulate_fresh", func() error {
			_, err := v.SimulateRiskWith(benchhost.Targets, flowsched.RiskOptions{Trials: e6Trials, Seed: freshSeed(cfg.seed, 9, int64(i)), Workers: 1})
			return err
		})
		if err != nil {
			return nil, err
		}
		kernel = append(kernel, e6Trials/d.Seconds())
	}
	m["monte.trials_per_s"] = metric{median(kernel), "1/s"}
	i := int64(100)
	m["monte.allocs_per_run"] = metric{allocsPerRun(3, func() error {
		i++
		v, err := p.View()
		if err != nil {
			return err
		}
		_, err = v.SimulateRiskWith(benchhost.Targets, flowsched.RiskOptions{Trials: e6Trials, Seed: freshSeed(cfg.seed, 9, i), Workers: 1})
		return err
	}), "count"}
	standing := flowsched.RiskOptions{Trials: e6Trials, Seed: pm.RiskSeed, Workers: 1}
	for round := 0; round < 5; round++ {
		if round > 0 {
			e, err := flowsched.ParseScenarioEdit(fmt.Sprintf("e=%s*%s", activities[round], "2"))
			if err != nil {
				return nil, err
			}
			if err := p.ApplyScenarioEdit(e); err != nil {
				return nil, err
			}
		}
		v, err := p.View()
		if err != nil {
			return nil, err
		}
		var r *flowsched.RiskResult
		if _, err := log.time(0, "monte.simulate_after_edit", func() error {
			r, err = v.SimulateRiskWith(benchhost.Targets, standing)
			return err
		}); err != nil {
			return nil, err
		}
		if round > 0 {
			sampled += int64(r.SampledActivityTrials)
			reused += int64(r.ReusedActivityTrials)
		}
	}
	m["monte.reuse_ratio"] = metric{ratio(float64(reused), float64(sampled+reused)), "ratio"}

	// scenario: a three-edit what-if sweep, plain and with the risk
	// dimension sharing its baseline.
	v, err := p.View()
	if err != nil {
		return nil, err
	}
	var edits []flowsched.ScenarioEdit
	for _, s := range whatifMenu[:3] {
		e, err := flowsched.ParseScenarioEdit(s)
		if err != nil {
			return nil, err
		}
		edits = append(edits, e)
	}
	var sweep []float64
	for i := 0; i < 5; i++ {
		d, err := log.time(0, "scenario.sweep", func() error {
			_, err := v.Scenarios(benchhost.Targets, edits, flowsched.ScenarioOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		sweep = append(sweep, ms(d))
	}
	m["scenario.sweep_ms"] = metric{median(sweep), "ms"}
	var rep *flowsched.ScenarioReport
	if _, err := log.time(0, "scenario.sweep_risk", func() error {
		rep, err = v.Scenarios(benchhost.Targets, edits, flowsched.ScenarioOptions{
			Risk: &scenario.RiskSpec{Trials: e6Trials, Seed: pm.RiskSeed}})
		return err
	}); err != nil {
		return nil, err
	}
	m["scenario.reuse_ratio"] = metric{ratio(float64(rep.RiskReusedTrials), float64(rep.RiskSampledTrials+rep.RiskReusedTrials)), "ratio"}
	m["count.trials_sampled"] = metric{float64(sampled + rep.RiskSampledTrials), "count"}
	m["count.trials_reused"] = metric{float64(reused + rep.RiskReusedTrials), "count"}

	// store: View latency from a reader goroutine while a writer commits
	// durable tracking writes.
	var waits []float64
	var wg sync.WaitGroup
	done := make(chan struct{})
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for r := 0; r < 3 && werr == nil; r++ {
			for _, k := range []string{"plan", "run"} {
				if werr = facadeWrite(p, k, r); werr != nil {
					return
				}
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
			d, err := log.time(0, "store.view_under_write", func() error { _, err := p.View(); return err })
			if err != nil {
				return nil, err
			}
			waits = append(waits, us(d))
		}
	}
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	m["store.reader_wait_us"] = metric{orZero(quantile(waits, 0.9)), "us"}

	// persist: fsyncs, bytes and fsync time per durable facade write,
	// then checkpoint cost.
	var syncTotal, callTotal time.Duration
	const rounds = 3
	for _, k := range writeOps {
		s0, st0, w0 := cfs.snapshot()
		for r := 0; r < rounds; r++ {
			d, err := log.time(0, "persist.write_"+k, func() error { return facadeWrite(p, k, r) })
			if err != nil {
				return nil, fmt.Errorf("durable %s: %w", k, err)
			}
			callTotal += d
		}
		s1, st1, w1 := cfs.snapshot()
		syncTotal += st1 - st0
		m["persist.fsyncs_per_write."+k] = metric{float64(s1-s0) / rounds, "count"}
		m["persist.bytes_per_write."+k] = metric{float64(w1-w0) / rounds, "bytes"}
	}
	m["persist.fsync_share"] = metric{float64(syncTotal) / float64(callTotal), "ratio"}
	var cps []float64
	for i := 0; i < 3; i++ {
		d, err := log.time(0, "persist.checkpoint", p.Checkpoint)
		if err != nil {
			return nil, err
		}
		cps = append(cps, ms(d))
	}
	m["persist.checkpoint_ms"] = metric{median(cps), "ms"}
	if err := p.Close(); err != nil {
		return nil, err
	}

	// engine: the same writes with fsync off — compute without disk.
	q, err := flowsched.Open(pdir(sample[len(sample)-1]), "", benchhost.ProjectOptions(), flowsched.PersistOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	if err := q.UseSimulatedTools(); err != nil {
		return nil, err
	}
	for _, k := range writeOps {
		var xs []float64
		for r := 0; r < 5; r++ {
			d, err := log.time(0, "engine.write_"+k, func() error { return facadeWrite(q, k, r) })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k, err)
			}
			xs = append(xs, us(d))
		}
		m["engine.write_us."+k] = metric{median(xs), "us"}
	}
	if err := q.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// allocsPerRun is the mean heap allocation count of fn over n runs.
func allocsPerRun(n int, fn func() error) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
