package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"flowsched"
	"flowsched/perfbench/internal/benchhost"
)

// projectMeta describes one fixture project to the load generator.
type projectMeta struct {
	ID string `json:"id"`
	// RiskSeed is the project's standing risk seed: the seed its
	// dashboards ask /risk for, so repeats hit the serve caches.
	RiskSeed int64 `json:"riskSeed"`
	// Finish is the tracked plan's finish; milestone targets sit near it.
	Finish    time.Time `json:"finish"`
	Version   uint64    `json:"version"`
	Footprint int64     `json:"footprint"`
	// WALSeq is the last logged record; TailRecords of them follow the
	// last checkpoint and are replayed on every cold open.
	WALSeq      uint64 `json:"walSeq"`
	TailRecords uint64 `json:"tailRecords"`
}

type fixtureMeta struct {
	Projects []projectMeta `json:"projects"`
}

func projectID(i int) string { return fmt.Sprintf("p%03d", i) }

// generateFixture builds the workload's durable root through the public
// facade with fsync off: every project imports its inputs, then runs
// spec.history plan+run tracking cycles with a milestone per cycle, is
// checkpointed, runs spec.tail more cycles past the checkpoint, and is
// re-planned. The projects are abandoned without Close, so the tail
// stays in the WAL for recovery to replay — the caller runs this in a
// child process whose exit releases the logs.
func generateFixture(sp spec, seed int64, root string) (*fixtureMeta, error) {
	meta := &fixtureMeta{}
	for i := 0; i < sp.projects; i++ {
		pm, err := generateProject(sp, seed, root, i)
		if err != nil {
			return nil, fmt.Errorf("fixture project %d: %w", i, err)
		}
		meta.Projects = append(meta.Projects, pm)
	}
	return meta, nil
}

func generateProject(sp spec, seed int64, root string, i int) (projectMeta, error) {
	// The project's content and history depend on its index only, so
	// every seed recovers and renders the same amount of work; the seed
	// picks the standing risk seed here and the op sequences elsewhere.
	rng := rand.New(rand.NewSource(int64(i) + 1))
	riskSeed := rand.New(rand.NewSource(seed*1_000_003 + int64(i))).Int63n(1 << 30)
	id := projectID(i)
	p, err := flowsched.Open(filepath.Join(root, id), flowsched.ASICSchema,
		benchhost.ProjectOptions(), flowsched.PersistOptions{NoSync: true, CheckpointEvery: -1})
	if err != nil {
		return projectMeta{}, err
	}
	if err := p.UseSimulatedTools(); err != nil {
		return projectMeta{}, err
	}
	for _, in := range []string{"rtl", "constraints", "testbench"} {
		if _, err := p.Import(in, []byte(fmt.Sprintf("%s of %s rev %d", in, id, rng.Intn(1000)))); err != nil {
			return projectMeta{}, err
		}
	}
	var cpSeq uint64
	plan := func() (*flowsched.Plan, error) {
		est := flowsched.Fixed{Default: 8 * time.Hour}
		return p.Plan(benchhost.Targets, est, flowsched.PlanOptions{})
	}
	milestone := func(pl *flowsched.Plan) error {
		name, class, off := milestoneParams(rng.Intn(len(milestoneNames)), rng.Intn(len(milestoneOffsets)))
		return p.SetMilestone(name, class, pl.Finish.Add(off))
	}
	for c := 0; c < sp.history; c++ {
		pl, err := plan()
		if err != nil {
			return projectMeta{}, err
		}
		if err := milestone(pl); err != nil {
			return projectMeta{}, err
		}
		if _, err := p.RunWith(benchhost.Targets, flowsched.RunOptions{AutoComplete: true}); err != nil {
			return projectMeta{}, err
		}
		if c == sp.history-sp.tail-1 {
			if err := p.Checkpoint(); err != nil {
				return projectMeta{}, err
			}
			cpSeq = p.WALSeq()
		}
	}
	// The live plan every workload starts from: planned, not yet run,
	// with one target per milestone name near its finish.
	pl, err := plan()
	if err != nil {
		return projectMeta{}, err
	}
	for k := range milestoneNames {
		name, class, off := milestoneParams(k, rng.Intn(len(milestoneOffsets)))
		if err := p.SetMilestone(name, class, pl.Finish.Add(off)); err != nil {
			return projectMeta{}, err
		}
	}
	if sp.tail == 0 {
		if err := p.Checkpoint(); err != nil {
			return projectMeta{}, err
		}
		cpSeq = p.WALSeq()
	}
	return projectMeta{
		ID: id, RiskSeed: riskSeed, Finish: pl.Finish,
		Version: p.Version(), Footprint: p.MemoryFootprint(),
		WALSeq: p.WALSeq(), TailRecords: p.WALSeq() - cpSeq,
	}, nil
}

// The fixed milestone vocabulary: names, the class each tracks, and the
// offsets from the plan finish that targets take. A fixed set keeps the
// rendered state stationary over a run.
var (
	milestoneNames   = []string{"netlist-freeze", "timing-closure", "drc-clean", "tapeout"}
	milestoneClasses = []string{"netlist", "timingreport", "drcreport", "lvsreport"}
	milestoneOffsets = []time.Duration{-48 * time.Hour, -24 * time.Hour, 0, 24 * time.Hour, 72 * time.Hour}
)

func milestoneParams(name, offset int) (string, string, time.Duration) {
	return milestoneNames[name], milestoneClasses[name], milestoneOffsets[offset]
}

// fixtureMain is the child-process entry: generate the fixture named by
// the environment and write its metadata.
func fixtureMain() int {
	sp, err := specFor(os.Getenv(envWorkload), os.Getenv(envScale))
	if err == nil {
		var seed int64
		if _, err = fmt.Sscan(os.Getenv(envSeed), &seed); err == nil {
			root := os.Getenv(envRoot)
			var meta *fixtureMeta
			if meta, err = generateFixture(sp, seed, root); err == nil {
				err = writeJSON(filepath.Join(root, "..", "meta.json"), meta)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench fixture:", err)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// copyTree copies a fixture root file by file and syncs the filesystem,
// so writeback of the copy does not land inside a timed phase.
func copyTree(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		return copyFile(path, out)
	})
	if err != nil {
		return err
	}
	syscall.Sync()
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
