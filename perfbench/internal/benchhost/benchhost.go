// Package benchhost holds the configuration the benchmark's server and
// its in-process reference renders share, so both serve the same bytes.
package benchhost

import (
	"flowsched"
	"flowsched/internal/host"
	"flowsched/internal/persist"
	"flowsched/internal/serve"
)

// Designer is the designer every fixture project is created with (the
// flowservd default).
const Designer = "flowservd"

// Targets are the data classes every fixture project plans toward: the
// four sign-off reports of the ASIC flow, covering all eight activities.
var Targets = []string{"timingreport", "drcreport", "lvsreport", "simreport"}

// ProjectOptions are the per-project options of every served project:
// flowservd's host-mode defaults, observability on.
func ProjectOptions() flowsched.Options {
	return flowsched.Options{Designer: Designer, Obs: flowsched.ObsOptions{Enabled: true}}
}

// HostOptions is the registry configuration over root with a resident
// byte budget (0 = unlimited). fsync stays on and checkpoints keep the
// default cadence; fs nil selects the real filesystem.
func HostOptions(root string, budget int64, fs persist.FS) host.Options {
	return host.Options{
		Root:             root,
		MaxResidentBytes: budget,
		Project:          ProjectOptions(),
		Persist:          flowsched.PersistOptions{FS: fs},
	}
}

// ServeOptions is the HTTP configuration: serve's defaults (memo and
// fingerprint tiers on, request observability on, no admission limit).
func ServeOptions(addr string) serve.Options {
	return serve.Options{Addr: addr}
}
