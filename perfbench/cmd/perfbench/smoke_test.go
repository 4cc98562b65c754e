package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"flowsched"
)

func TestMain(m *testing.M) {
	// The fixture generator re-executes this binary (see makeFixture).
	if os.Getenv(envRole) == "fixture" {
		os.Exit(fixtureMain())
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the harness must honour.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON(filepath.Join("..", "..", "..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload the harness implements at smoke-test
// size, end to end and traced, and checks that each reports exactly the
// metrics BENCHMARK.json declares, with their units, and that every
// check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server and runs six benchmark passes")
	}
	bench := readBenchmarkFile(t)
	bin := filepath.Join(t.TempDir(), "flowbenchd")
	if out, err := exec.Command("go", "build", "-o", bin, "../flowbenchd").CombinedOutput(); err != nil {
		t.Fatalf("build flowbenchd: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			res, err := run(config{workload: name, seed: 1, seconds: 2, trace: trace,
				server: bin, work: t.TempDir(), scale: "small"})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, declared %q", name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestDeclaredWorkloadsExist checks that every workload BENCHMARK.json
// declares is one the harness implements.
func TestDeclaredWorkloadsExist(t *testing.T) {
	for _, w := range readBenchmarkFile(t).Workloads {
		if _, err := specFor(w.Name, ""); err != nil {
			t.Error(err)
		}
	}
}

// TestDigestFollowsSeed checks that op sequences are a function of the
// seed: equal seeds give equal digests, different seeds different ones.
func TestDigestFollowsSeed(t *testing.T) {
	meta := &fixtureMeta{}
	for i := 0; i < 16; i++ {
		meta.Projects = append(meta.Projects, projectMeta{ID: projectID(i)})
	}
	for _, name := range workloadNames {
		sp, err := specFor(name, "")
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := digest(cycles(sp, 1, meta)), digest(cycles(sp, 1, meta)), digest(cycles(sp, 2, meta))
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 share digest %s", name, a)
		}
	}
}

// TestFreshWhatIf checks that every fresh what-if edit parses under its
// menu name, and that no value repeats within a thousand requests, far
// more than the fingerprint tier holds.
func TestFreshWhatIf(t *testing.T) {
	for e, spec := range whatifMenu {
		name, _, _ := strings.Cut(spec, "=")
		seen := map[string]bool{}
		for n := int64(1); n <= 1000; n++ {
			s := freshWhatIf(e, n)
			ed, err := flowsched.ParseScenarioEdit(s)
			if err != nil {
				t.Fatalf("%q: %v", s, err)
			}
			if ed.Name != name {
				t.Fatalf("%q: scenario %q, want %q", s, ed.Name, name)
			}
			if seen[s] && s != spec {
				t.Fatalf("%q repeats within 1000 requests", s)
			}
			seen[s] = true
		}
	}
}
