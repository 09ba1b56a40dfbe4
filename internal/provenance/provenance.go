// Package provenance records where a measurement came from — the source
// revision of the running binary, the machine and the Go toolchain — so
// that the benchmark reports the repository's tools write (ccload's load
// report, ccbench's BENCH_interp.json and BENCH_opt.json) carry the same
// header.
package provenance

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Host is a report's provenance header: the binary's VCS revision ("-dirty"
// when built from a modified tree, empty when not stamped), the machine's
// CPU count and model (empty off Linux), and the Go toolchain.
type Host struct {
	GitRevision string `json:"git_revision"`
	NProc       int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
}

// Here is the provenance of the running process.
func Here() Host {
	return Host{GitRevision: gitRevision(), NProc: runtime.NumCPU(), CPUModel: cpuModel(), GoVersion: runtime.Version()}
}

// gitRevision returns the VCS revision stamped into this binary, with a
// "-dirty" suffix when the tree had uncommitted changes. `go run` and
// builds outside a repository stamp none, so it is empty there.
func gitRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev string
	var dirty bool
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "-dirty"
	}
	return rev
}

// cpuModel returns the first "model name" line of /proc/cpuinfo, or ""
// where there is none (off Linux, or on CPUs that do not report one).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
