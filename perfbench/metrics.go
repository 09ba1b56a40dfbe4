package main

import (
	"gocured/internal/cil"
	"gocured/internal/corpus"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run. p90_ms is the highest
// percentile the execute workload's samples support; p99_ms is the one the
// other three support (the samples line states the support of both).
var endToEndMetrics = []metricDef{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// compileLayers names the spans the traced replica of core.BuildStored
// records, in call order, with the /cure reply phase that times the same
// call inside ccserve ("" where the server records no such phase).
var compileLayers = []struct{ name, servePhase string }{
	{"core.frontend_raw", "frontend-raw"},
	{"cparse.parse", "parse"},
	{"sema.check", "sema"},
	{"cil.lower", "lower"},
	{"instrument.redirect", ""},
	{"infer.infer", "infer"},
	{"instrument.cure", "instrument"},
	{"instrument.optimize", "optimize"},
	{"instrument.sites", ""},
}

// perLayerMetrics is the ledger printed by every traced run. A layer that
// does no work on a workload reads 0 there. What each should move:
//
//   - compile layer times (mean self time per op) and compiler counts (per
//     pass): p50_ms, ops_per_s and cpu_ms_per_op on compile, cpu_ms_per_op
//     on serve-edit (whose replies time the same phases); nothing on
//     execute or serve-hit. The optimizer raises instrument.optimize_ms on
//     compile and lowers interp.checks on execute.
//   - vm.compile_ms: setup_s on execute. interp.init_ms: p50_ms on execute
//     through the short programs. interp.execute_ms, interp.ns_per_step:
//     ops_per_s and p90_ms on execute. The interp and mem counts are exact
//     per pass.
//   - go.*: cpu_ms_per_op and rss_mb on the library workloads.
//   - ccserve.http_ms, pipeline.queue_wait_ms, pipeline.cache_lookup_ms:
//     ops_per_s, p50_ms and cpu_ms_per_op on serve-hit.
//   - store.*, pipeline.evictions and the ccserve heap and GC metrics:
//     cpu_ms_per_op, p99_ms and rss_mb on serve-edit.
//   - <program>.compile_ms and <program>.run_ms: medians of the untraced
//     ops, on compile and execute.
func perLayerMetrics() []metricDef {
	var out []metricDef
	for _, l := range compileLayers {
		out = append(out, metricDef{l.name + "_ms", "ms"})
	}
	out = append(out,
		metricDef{"cparse.klines_per_s", "klines/s"},
		metricDef{"cil.instrs", "count"},
		metricDef{"infer.pointers", "count"},
		metricDef{"instrument.checks_inserted", "count"},
		metricDef{"instrument.checks_removed", "count"},
		metricDef{"vm.compile_ms", "ms"},
		metricDef{"interp.init_ms", "ms"},
		metricDef{"interp.execute_ms", "ms"},
		metricDef{"interp.ns_per_step", "ns"},
		metricDef{"interp.steps", "count"},
		metricDef{"interp.checks", "count"},
		metricDef{"interp.sim_cycles", "count"},
		metricDef{"mem.accesses", "count"},
	)
	for k := 0; k < cil.NumCheckKinds; k++ {
		out = append(out, metricDef{"interp.checks." + cil.CheckKind(k).String(), "count"})
	}
	out = append(out,
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.mallocs_k", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_cpu_pct", "%"},
		metricDef{"ccserve.http_ms", "ms"},
		metricDef{"pipeline.queue_wait_ms", "ms"},
		metricDef{"pipeline.cache_lookup_ms", "ms"},
		metricDef{"store.read_ms", "ms"},
		metricDef{"store.write_ms", "ms"},
		metricDef{"pipeline.cache_hit_ratio", "ratio"},
		metricDef{"pipeline.evictions", "count"},
		metricDef{"store.funcs_loaded", "count"},
		metricDef{"store.funcs_recured", "count"},
		metricDef{"store.replay_ratio", "ratio"},
		metricDef{"ccserve.gc_cpu_pct", "%"},
		metricDef{"ccserve.alloc_kb_per_op", "KB"},
		metricDef{"ccserve.heap_mb", "MB"},
		metricDef{"ccserve.reply_kb", "KB"},
		metricDef{"bench.gen_cpu_ms_per_op", "ms"},
		metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"machine.steal_pct", "%"},
		metricDef{"machine.calib_ms", "ms"},
	)
	for _, p := range corpus.All() {
		out = append(out, metricDef{p.Name + ".compile_ms", "ms"})
	}
	for _, p := range corpus.All() {
		out = append(out, metricDef{p.Name + ".run_ms", "ms"})
	}
	return out
}
