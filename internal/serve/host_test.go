package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"flowsched"
	"flowsched/internal/host"
)

// newHost builds a multi-tenant server over a temp root with fsync off
// and project observability on.
func newHost(t *testing.T, root string, opt Options) *Host {
	t.Helper()
	h, err := NewHost(host.Options{
		Root:    root,
		Persist: flowsched.PersistOptions{NoSync: true},
		Project: flowsched.Options{Designer: "ewj", Obs: flowsched.ObsOptions{Enabled: true}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Shutdown(context.Background()) })
	return h
}

// seedProject creates a durable project with a plan and one tracked run
// through the host's registry, then releases it.
func seedProject(t *testing.T, h *Host, id string) {
	t.Helper()
	hd, err := h.Projects().Create(id, flowsched.Fig4Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer hd.Release()
	err = hd.Do(func(p *flowsched.Project) error {
		if _, err := p.Import("stimuli", []byte("pulse "+id)); err != nil {
			return err
		}
		if _, err := p.Plan([]string{"performance"}, flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{}); err != nil {
			return err
		}
		_, err := p.Run([]string{"performance"}, true)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func hostGet(t *testing.T, h *Host, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, req)
	return rec
}

func TestHostRoutesEveryReadSurfacePerProject(t *testing.T) {
	h := newHost(t, t.TempDir(), Options{})
	seedProject(t, h, "alpha")
	seedProject(t, h, "beta")

	cases := []struct{ path, want string }{
		{"/p/alpha/version", `"storeVersion"`},
		{"/p/alpha/status", `"activities"`},
		{"/p/alpha/gantt", "Create"},
		{"/p/alpha/dashboard", "project dashboard"},
		{"/p/alpha/analyze", `"CriticalPath"`},
		{"/p/alpha/risk?trials=50&seed=7", `"p95"`},
		{"/p/alpha/events?since=0", `"events"`},
		{"/p/alpha/healthz", `"status": "ok"`},
		{"/p/beta/status", `"activities"`},
	}
	for _, c := range cases {
		rec := hostGet(t, h, c.path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", c.path, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), c.want) {
			t.Fatalf("GET %s body missing %q:\n%s", c.path, c.want, rec.Body.String())
		}
		if got := rec.Header().Get("X-Flowsched-Project"); !strings.HasPrefix(c.path, "/p/"+got+"/") {
			t.Fatalf("GET %s: X-Flowsched-Project = %q", c.path, got)
		}
	}

	// The two tenants are distinct stores with distinct snapshots.
	va := hostGet(t, h, "/p/alpha/version")
	vb := hostGet(t, h, "/p/beta/version")
	if va.Header().Get("X-Flowsched-Version") == "" ||
		va.Body.String() == "" || vb.Body.String() == "" {
		t.Fatal("missing snapshot identity")
	}
}

func TestHostProjectsListing(t *testing.T) {
	h := newHost(t, t.TempDir(), Options{})
	seedProject(t, h, "alpha")
	seedProject(t, h, "beta")
	if err := h.Projects().Evict("beta"); err != nil {
		t.Fatal(err)
	}
	rec := hostGet(t, h, "/projects")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /projects = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"alpha"`, `"beta"`, `"resident": true`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/projects missing %s:\n%s", want, body)
		}
	}
}

func TestHostUnknownAndInvalidProjects(t *testing.T) {
	h := newHost(t, t.TempDir(), Options{})
	for _, path := range []string{"/p/nope/status", "/p/.dot/status"} {
		if rec := hostGet(t, h, path); rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, rec.Code)
		}
	}
	if v := h.rejected.Value(); v != 2 {
		t.Fatalf("serve_host_rejected_total = %d, want 2", v)
	}
}

func TestHostPerTenantRequestMetrics(t *testing.T) {
	h := newHost(t, t.TempDir(), Options{})
	seedProject(t, h, "alpha")
	hostGet(t, h, "/p/alpha/version")
	hostGet(t, h, "/p/alpha/status")
	rec := hostGet(t, h, "/metrics")
	body := rec.Body.String()
	if !strings.Contains(body, `serve_requests_by_project_total{project="alpha"} 2`) {
		t.Fatalf("host metrics missing per-tenant counter:\n%s", body)
	}
	for _, fam := range []string{"host_project_loads_total", "host_resident_projects"} {
		if !strings.Contains(body, fam) {
			t.Fatalf("host metrics missing %s", fam)
		}
	}
	if errs := h.Registry().Lint(); len(errs) != 0 {
		t.Fatalf("host metric lint: %v", errs)
	}
}

// TestHostEvictionMidRequestPinnedViewCompletes is the registry/serving
// integration contract: a request that pinned its project survives a
// concurrent eviction (the response completes from its snapshot), and
// the subsequent request re-loads from disk and reports the same
// X-Flowsched-Version.
func TestHostEvictionMidRequestPinnedViewCompletes(t *testing.T) {
	h := newHost(t, t.TempDir(), Options{})
	seedProject(t, h, "alpha")

	evicted := false
	h.afterPin = func(id string) {
		if !evicted {
			evicted = true
			// Races the in-flight request: the entry leaves the registry
			// now, but the pin defers the WAL close past the response.
			if err := h.Projects().Evict(id); err != nil {
				t.Errorf("evict: %v", err)
			}
		}
	}
	rec := hostGet(t, h, "/p/alpha/risk?trials=50&seed=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("pinned request failed after eviction: %d %s", rec.Code, rec.Body.String())
	}
	v1 := rec.Header().Get("X-Flowsched-Version")

	h.afterPin = nil
	rec2 := hostGet(t, h, "/p/alpha/risk?trials=50&seed=7")
	if rec2.Code != http.StatusOK {
		t.Fatalf("re-load request failed: %d %s", rec2.Code, rec2.Body.String())
	}
	if v2 := rec2.Header().Get("X-Flowsched-Version"); v2 != v1 {
		t.Fatalf("re-loaded project serves version %s, evicted served %s", v2, v1)
	}
	if rec.Body.String() != rec2.Body.String() {
		t.Fatal("risk summary changed across evict + re-load")
	}
}

var trialsRe = regexp.MustCompile(`(?m)^monte_trials_total (\d+)$`)

func trialsOf(t *testing.T, h *Host, id string) int {
	t.Helper()
	rec := hostGet(t, h, "/p/"+id+"/metrics")
	m := trialsRe.FindStringSubmatch(rec.Body.String())
	if m == nil {
		return 0
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestHostCrashRecoveryAcceptance is the PR's acceptance scenario:
// kill -9 mid-tracked-run (no Close — only the WAL survives), restart
// the host, and the project comes back bit-identical — same store
// version, same risk fingerprint — and a warm /risk across an
// unrelated store advance re-runs zero trials (fingerprint tier hit,
// monte_trials_total flat).
func TestHostCrashRecoveryAcceptance(t *testing.T) {
	root := t.TempDir()

	// "Process one": drive a tracked project and crash without Close.
	p, err := flowsched.Open(root+"/alpha", flowsched.Fig4Schema,
		flowsched.Options{Designer: "ewj"},
		flowsched.PersistOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan([]string{"performance"}, flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		t.Fatal(err)
	}
	v, err := p.View()
	if err != nil {
		t.Fatal(err)
	}
	wantVersion := v.Version()
	wantFP, err := v.RiskFingerprint([]string{"performance"}, flowsched.RiskOptions{Trials: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// No p.Close(): this is the kill -9.

	// "Process two": a fresh host over the same root.
	h := newHost(t, root, Options{})
	rec := hostGet(t, h, "/p/alpha/version")
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered /version = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Flowsched-Version"); got != strconv.FormatUint(wantVersion, 10) {
		t.Fatalf("recovered store version %s, want %d", got, wantVersion)
	}

	// The recovered risk fingerprint is bit-identical to pre-crash.
	hd, err := h.Projects().Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := hd.Project().View()
	if err != nil {
		t.Fatal(err)
	}
	gotFP, err := rv.RiskFingerprint([]string{"performance"}, flowsched.RiskOptions{Trials: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != wantFP {
		t.Fatalf("recovered risk fingerprint %q, want %q", gotFP, wantFP)
	}

	// Cold /risk samples trials...
	if rec := hostGet(t, h, "/p/alpha/risk?trials=100&seed=7"); rec.Code != http.StatusOK {
		t.Fatalf("cold /risk = %d: %s", rec.Code, rec.Body.String())
	}
	cold := trialsOf(t, h, "alpha")
	if cold == 0 {
		t.Fatal("cold /risk sampled no trials")
	}
	// ...then an unrelated store advance invalidates the snapshot memo...
	err = hd.Do(func(p *flowsched.Project) error {
		_, err := p.Import("stimuli", []byte("pulse unrelated"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	hd.Release()
	// ...and the warm /risk is a fingerprint-tier hit: zero new trials.
	rec = hostGet(t, h, "/p/alpha/risk?trials=100&seed=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("warm /risk = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Flowsched-Cache"); got != "fingerprint" {
		t.Fatalf("warm /risk cache = %q, want fingerprint", got)
	}
	if warm := trialsOf(t, h, "alpha"); warm != cold {
		t.Fatalf("warm /risk re-ran trials: monte_trials_total %d -> %d", cold, warm)
	}
}

// TestHostShutdownDrainsWALs: a graceful shutdown checkpoints every
// resident project, so a restart replays nothing and serves the same
// versions.
func TestHostShutdownDrainsWALs(t *testing.T) {
	root := t.TempDir()
	h := newHost(t, root, Options{})
	seedProject(t, h, "alpha")
	v1 := hostGet(t, h, "/p/alpha/version").Header().Get("X-Flowsched-Version")
	if err := h.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	h2 := newHost(t, root, Options{})
	v2 := hostGet(t, h2, "/p/alpha/version").Header().Get("X-Flowsched-Version")
	if v1 == "" || v1 != v2 {
		t.Fatalf("version across graceful restart: %q vs %q", v1, v2)
	}
}

// TestHostDropsServersOfFinalizedProjects: the per-project server map
// holds only servers over resident instances. Evicting, reopening and
// evicting a pinned project each leave no server behind for the
// finalized instance (it would keep the closed project, its memo and
// its caches reachable).
func TestHostDropsServersOfFinalizedProjects(t *testing.T) {
	h := newHost(t, t.TempDir(), Options{})
	ids := []string{"alpha", "beta", "gamma"}
	for _, id := range ids {
		seedProject(t, h, id)
		if rec := hostGet(t, h, "/p/"+id+"/status"); rec.Code != http.StatusOK {
			t.Fatalf("%s status: %d", id, rec.Code)
		}
	}
	// alpha: plain eviction. beta: reopen over HTTP, which finalizes
	// the old instance and serves a new one. gamma: evicted while a
	// request pins it.
	if err := h.Projects().Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/p/beta/reopen", nil)
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("reopen beta: %d %s", rec.Code, rec.Body)
	}
	if rec := hostGet(t, h, "/p/beta/status"); rec.Code != http.StatusOK {
		t.Fatalf("beta status after reopen: %d", rec.Code)
	}
	h.afterPin = func(id string) {
		if id == "gamma" {
			h.Projects().Evict("gamma")
		}
	}
	if rec := hostGet(t, h, "/p/gamma/status"); rec.Code != http.StatusOK {
		t.Fatalf("gamma status: %d", rec.Code)
	}
	h.afterPin = nil

	list, err := h.Projects().List()
	if err != nil {
		t.Fatal(err)
	}
	resident := map[string]*flowsched.Project{}
	for _, pi := range list {
		if pi.Resident {
			hd, err := h.Projects().Get(pi.ID)
			if err != nil {
				t.Fatal(err)
			}
			resident[pi.ID] = hd.Project()
			hd.Release()
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, ps := range h.servers {
		if resident[id] != ps.p {
			t.Errorf("servers[%q] holds a non-resident project instance", id)
		}
	}
	if _, ok := h.servers["beta"]; !ok || len(h.servers) != 1 {
		t.Errorf("servers holds %d entries, want only beta's", len(h.servers))
	}
}
