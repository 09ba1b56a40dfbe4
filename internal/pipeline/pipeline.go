// Package pipeline turns gocured's one-shot Compile/Run API into a
// concurrent curing service core. It provides three pieces:
//
//   - Job / Runner: a worker pool that cures and executes many translation
//     units concurrently with bounded parallelism, per-job wall-clock
//     timeouts and step limits, and per-job panic isolation, so one
//     pathological source cannot take down a batch;
//
//   - Cache: a content-addressed memoization of Compile results keyed by
//     SHA-256(version, filename, options, source), with single-flight
//     coalescing of concurrent identical compiles, LRU eviction under a
//     size bound, and hit/miss/eviction counters;
//
//   - Metrics: a snapshot of jobs run, cache effectiveness, compile/run
//     wall-time histograms, and traps observed, exported programmatically
//     (Runner.Metrics) and rendered by cmd/ccserve as JSON (GET /metrics)
//     and Prometheus text (GET /metrics/prometheus).
//
// The experiments suite (internal/experiments, cmd/ccbench) dispatches its
// per-program work through a Runner, and cmd/ccserve exposes the Runner
// over HTTP. Correctness of the whole design rests on gocured.Program
// being safe for concurrent Run — see the Program documentation.
package pipeline

import (
	"runtime"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/store"
)

// OpenStore opens the persistent artifact store rooted at dir, keyed by
// this build's gocured and Go toolchain versions (the schema every command
// shares, so stores are interchangeable between ccserve, ccbench, ccrun,
// and ccured). An empty dir returns (nil, nil): the store is disabled.
func OpenStore(dir string) (*store.Artifacts, error) {
	if dir == "" {
		return nil, nil
	}
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return store.NewArtifacts(s, gocured.Version, runtime.Version()), nil
}

// CorpusJobs builds one job per (corpus program, mode) pair, curing each
// program with its documented options (bind's trusted casts, etc.) at the
// given scale (0 = source default). It is the canonical "cure the whole
// corpus" workload used by the pipeline tests and benchmarks.
func CorpusJobs(modes []gocured.Mode, scale int) []Job {
	var jobs []Job
	for _, p := range corpus.All() {
		src := p.Source
		if scale > 0 {
			src = corpus.WithScale(p, scale)
		}
		for _, mode := range modes {
			jobs = append(jobs, Job{
				Name:    p.Name + ".c",
				Source:  src,
				Options: gocured.Options{TrustBadCasts: p.TrustBadCasts},
				Run:     true,
				Mode:    mode,
			})
		}
	}
	return jobs
}

// CorpusCompileJobs builds compile-only jobs for every corpus program.
func CorpusCompileJobs(scale int) []Job {
	var jobs []Job
	for _, p := range corpus.All() {
		src := p.Source
		if scale > 0 {
			src = corpus.WithScale(p, scale)
		}
		jobs = append(jobs, Job{
			Name:    p.Name + ".c",
			Source:  src,
			Options: gocured.Options{TrustBadCasts: p.TrustBadCasts},
		})
	}
	return jobs
}
