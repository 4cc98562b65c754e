package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"time"

	"flowsched/internal/serve"
	"flowsched/perfbench/internal/benchhost"
)

// probePaths are the determinism contract's requests: for a seeded
// sample of projects, /risk at the standing seed and at a probe seed,
// and a fixed two-edit /whatif. Their bodies depend only on the seed,
// trial count and inputs, so the server must return exactly what an
// in-process render over a copy of the same durable state returns.
func probePaths(sp spec, seed int64, meta *fixtureMeta) []string {
	rng := rand.New(rand.NewSource(seed))
	n := min(3, len(meta.Projects))
	var out []string
	for _, i := range rng.Perm(len(meta.Projects))[:n] {
		pm := meta.Projects[i]
		pre := "/p/" + pm.ID + "/"
		trials := "&trials=" + itoa(int64(sp.riskTrials))
		q := url.Values{"edit": {whatifMenu[0], whatifMenu[2]}}
		out = append(out,
			pre+"risk?seed="+itoa(pm.RiskSeed)+trials,
			pre+"risk?seed="+itoa(seed+int64(i))+trials,
			pre+"whatif?"+q.Encode())
	}
	return out
}

func httpBodies(base string, paths []string) (map[string][]byte, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	out := map[string][]byte{}
	for _, p := range paths {
		resp, err := c.Get(base + p)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("GET %s: status %d: %s", p, resp.StatusCode, b)
		}
		out[p] = b
	}
	return out, nil
}

// inprocBodies renders the probes in this process, through a host built
// with the benchmark server's options over root.
func inprocBodies(root string, paths []string) (map[string][]byte, error) {
	h, err := serve.NewHost(benchhost.HostOptions(root, 0, nil), benchhost.ServeOptions(""))
	if err != nil {
		return nil, err
	}
	defer h.Shutdown(context.Background())
	out := map[string][]byte{}
	for _, p := range paths {
		rec := httptest.NewRecorder()
		h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
		if rec.Code != 200 {
			return nil, fmt.Errorf("in-process GET %s: status %d: %s", p, rec.Code, rec.Body.Bytes())
		}
		out[p] = rec.Body.Bytes()
	}
	return out, nil
}

// compareBodies counts probes whose served body differs from the
// in-process render, printing each.
func compareBodies(stage string, served, want map[string][]byte, fails *failLog) int {
	bad := 0
	for p, w := range want {
		if !bytes.Equal(served[p], w) {
			bad++
			fails.report(-1, op{kind: "probe " + p}, "%s: served body differs from the in-process render", stage)
		}
	}
	return bad
}

// checkDurable verifies, on a server restarted after SIGKILL, that every
// acknowledged write survived: each project's store version is at least
// its last acknowledged one, and each milestone acknowledged under the
// current plan reads back with its last acknowledged target. It returns
// the number of checks made and failed.
func checkDurable(base string, meta *fixtureMeta, states []*projState, fails *failLog) (checks, bad int) {
	c := newClient()
	defer c.CloseIdleConnections()
	get := func(path string, v any) error {
		resp, err := c.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
	for i, pm := range meta.Projects {
		st := states[i]
		o := op{kind: "durability", proj: i}
		checks++
		var ver struct {
			StoreVersion uint64 `json:"storeVersion"`
		}
		if err := get("/p/"+pm.ID+"/version", &ver); err != nil {
			bad++
			fails.report(-1, o, "%v", err)
			continue
		}
		if ver.StoreVersion < st.version {
			bad++
			fails.report(-1, o, "recovered version %d < acknowledged %d", ver.StoreVersion, st.version)
		}
		if len(st.milestones) == 0 {
			continue
		}
		checks++
		var ms struct {
			Milestones []struct {
				Name   string    `json:"name"`
				Target time.Time `json:"target"`
			} `json:"milestones"`
		}
		if err := get("/p/"+pm.ID+"/milestones", &ms); err != nil {
			bad++
			fails.report(-1, o, "%v", err)
			continue
		}
		for name, target := range st.milestones {
			found := false
			for _, m := range ms.Milestones {
				found = found || (m.Name == name && m.Target.Equal(target))
			}
			if !found {
				bad++
				fails.report(-1, o, "milestone %s lost its acknowledged target %s", name, target.Format(time.RFC3339))
			}
		}
	}
	return checks, bad
}
