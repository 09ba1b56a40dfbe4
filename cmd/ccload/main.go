// ccload is a load harness for ccserve: it drives a weighted mix of
// cure / cache-hit / run / edit-recure traffic at the server, sweeps
// concurrency levels to chart a saturation curve, and reports latency
// quantiles (p50/p99/p999) per level and per traffic class.
//
// Beyond raw latency it verifies the observability plumbing end to end:
//
//   - it samples the slowest cache-miss request of the sweep and fetches
//     GET /traces/{id}, requiring a ValidateTrace-clean Chrome trace whose
//     spans cover queue wait, the cache tier, and every compile phase,
//     all stamped with the matching trace ID;
//   - it reads GET /metrics afterwards and extracts the trace-buffer
//     drop counter;
//   - every request carries a freshly minted W3C traceparent header, and
//     the response's Traceparent echo must return the same trace-id — a
//     mismatch anywhere in the run is a gate violation.
//
// With -gate the process exits non-zero if the p99 SLO is violated at the
// gated level, the trace check fails, any request errored, the trace
// buffer dropped a trace, or a traceparent echo mismatched — making it
// suitable as a CI smoke gate. The report is written as JSON
// (BENCH_serve.json by convention).
//
// -overload FACTOR adds an overload scenario after the sweep: an open-loop
// run at FACTOR × the peak throughput the sweep measured (2 = the classic
// 2×-saturation probe). Its gates assert the server degrades by policy,
// not by collapse: zero 5xx, zero errors on admitted requests, every shed
// request a 429 with a Retry-After header, the shed fraction within
// -overload-shed-min/max, and admitted-request p99 still within
// -overload-slo-p99 (default: the -slo-p99 target). Admitted latency is
// measured open loop — from each request's scheduled arrival time — so it
// includes the queueing delay a real client would see under the burst.
//
// Example:
//
//	ccload -url http://127.0.0.1:8080 -levels 1,2,4,8 -duration 5s \
//	       -slo-p99 250ms -overload 2 -gate -out BENCH_serve.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gocured/internal/loadgen"
	"gocured/internal/provenance"
)

type sloReport struct {
	P99MS         float64 `json:"p99_ms"`
	Concurrency   int     `json:"concurrency"`
	ObservedP99MS float64 `json:"observed_p99_ms"`
	Pass          bool    `json:"pass"`
}

// overloadReport records the overload scenario's operating point and gate
// outcome: the server must shed excess load cleanly (429 + Retry-After, no
// 5xx, no admitted-request errors) while admitted requests keep the SLO.
type overloadReport struct {
	Factor        float64 `json:"factor"`
	SaturationRPS float64 `json:"saturation_rps"`
	TargetRPS     float64 `json:"target_rps"`
	ShedFraction  float64 `json:"shed_fraction"`
	ShedMin       float64 `json:"shed_min"`
	ShedMax       float64 `json:"shed_max"`
	AdmittedP99MS float64 `json:"admitted_p99_ms"`
	SLOP99MS      float64 `json:"slo_p99_ms,omitempty"`
	Pass          bool    `json:"pass"`
}

type report struct {
	GeneratedBy string `json:"generated_by"`
	Generated   string `json:"generated"`
	// Host records where the report came from: the ccload build's
	// revision and the client machine.
	provenance.Host
	BaseURL   string         `json:"base_url"`
	DurationS float64        `json:"duration_s_per_level"`
	Mix       map[string]int `json:"mix"`

	// Saturation is the closed-loop sweep, one entry per concurrency
	// level, in ascending order.
	Saturation []loadgen.Result `json:"saturation"`
	// OpenLoop is the optional fixed-arrival-rate run (-rate).
	OpenLoop *loadgen.Result `json:"open_loop,omitempty"`
	// Overload is the optional above-saturation open-loop run (-overload),
	// and OverloadGate its gate evaluation.
	Overload     *loadgen.Result `json:"overload,omitempty"`
	OverloadGate *overloadReport `json:"overload_gate,omitempty"`

	TraceCheck    loadgen.TraceCheck `json:"trace_check"`
	TracesDropped uint64             `json:"traces_dropped"`

	// TraceparentSent/TraceparentEchoMismatch aggregate the W3C
	// trace-context round-trip check across every run (mismatches gate).
	TraceparentSent         int `json:"traceparent_sent"`
	TraceparentEchoMismatch int `json:"traceparent_echo_mismatch"`

	SLO        *sloReport `json:"slo,omitempty"`
	Violations []string   `json:"violations,omitempty"`
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad concurrency level %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no concurrency levels")
	}
	return out, nil
}

func parseMix(s string) (map[string]int, error) {
	if s == "" {
		return loadgen.DefaultMix(), nil
	}
	mix := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want class=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		mix[strings.TrimSpace(name)] = w
	}
	return mix, nil
}

func main() {
	var (
		url       = flag.String("url", "http://127.0.0.1:8080", "ccserve base URL")
		levels    = flag.String("levels", "1,2,4,8", "comma-separated closed-loop concurrency sweep")
		duration  = flag.Duration("duration", 5*time.Second, "duration per sweep level")
		rate      = flag.Float64("rate", 0, "additional open-loop run at this arrival rate (req/s; 0 = skip)")
		overload  = flag.Float64("overload", 0, "overload run at this multiple of the sweep's peak throughput (0 = skip)")
		shedMin   = flag.Float64("overload-shed-min", 0, "minimum acceptable shed fraction in the overload run")
		shedMax   = flag.Float64("overload-shed-max", 0.95, "maximum acceptable shed fraction in the overload run")
		ovlSLO    = flag.Duration("overload-slo-p99", 0, "admitted-request p99 SLO for the overload run (0 = use -slo-p99)")
		mixFlag   = flag.String("mix", "", "traffic mix as class=weight,... (classes: hit,run,cure,edit,heavy)")
		seed      = flag.Int64("seed", 1, "random seed for the class sequence")
		waitReady = flag.Duration("wait-ready", 30*time.Second, "how long to poll /readyz before starting")
		out       = flag.String("out", "BENCH_serve.json", "report path (- = stdout)")
		sloP99    = flag.Duration("slo-p99", 0, "p99 latency SLO at the gated level (0 = no SLO)")
		sloLevel  = flag.Int("slo-level", 0, "concurrency level the SLO applies to (0 = lowest swept level)")
		gate      = flag.Bool("gate", false, "exit non-zero on SLO violation, trace-check failure, errors, or traceparent mismatches")
	)
	flag.Parse()

	lvls, err := parseLevels(*levels)
	if err != nil {
		fatal(err)
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if err := loadgen.WaitReady(ctx, nil, *url, *waitReady); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ccload: %s ready; sweeping concurrency %v, %v per level\n", *url, lvls, *duration)

	rep := report{
		GeneratedBy: "ccload",
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Host:        provenance.Here(),
		BaseURL:     *url,
		DurationS:   duration.Seconds(),
		Mix:         mix,
	}

	// The trace check samples a high-latency cache miss. The server's trace
	// buffer is bounded, so a trace from early in the sweep may be evicted
	// by later traffic — check right after each run while its traces are
	// still live, preferring the level's slowest miss and falling back to
	// its most recent one. The slowest passing check across the sweep wins.
	var traceCheck *loadgen.TraceCheck
	traceCheckMS := 0.0
	checkRun := func(res loadgen.Result) {
		candidates := []struct {
			id string
			ms float64
		}{
			{res.SlowestMissTraceID, res.SlowestMissMS},
			{res.LastMissTraceID, res.LastMissMS},
		}
		for _, cand := range candidates {
			if cand.id == "" {
				continue
			}
			tc := loadgen.CheckTrace(ctx, nil, *url, cand.id, loadgen.RequiredCompileSpans)
			if tc.OK {
				if traceCheck == nil || !traceCheck.OK || cand.ms >= traceCheckMS {
					traceCheck, traceCheckMS = &tc, cand.ms
				}
				return
			}
			if traceCheck == nil || !traceCheck.OK {
				traceCheck = &tc
			}
		}
	}

	for _, c := range lvls {
		res, err := loadgen.Run(ctx, loadgen.Config{
			BaseURL:     *url,
			Duration:    *duration,
			Concurrency: c,
			Mix:         mix,
			Seed:        *seed + int64(c),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ccload: c=%-3d %6.1f req/s  p50=%.2fms p99=%.2fms p999=%.2fms errs=%d\n",
			c, res.ThroughputRPS, res.P50MS, res.P99MS, res.P999MS, res.Errors)
		rep.Saturation = append(rep.Saturation, res)
		checkRun(res)
	}

	if *rate > 0 {
		res, err := loadgen.Run(ctx, loadgen.Config{
			BaseURL:    *url,
			Duration:   *duration,
			RatePerSec: *rate,
			Mix:        mix,
			Seed:       *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ccload: open loop %.0f req/s  p50=%.2fms p99=%.2fms p999=%.2fms errs=%d\n",
			*rate, res.P50MS, res.P99MS, res.P999MS, res.Errors)
		rep.OpenLoop = &res
		checkRun(res)
	}

	if *overload > 0 {
		satRPS := 0.0
		for _, r := range rep.Saturation {
			if r.ThroughputRPS > satRPS {
				satRPS = r.ThroughputRPS
			}
		}
		if satRPS <= 0 {
			rep.Violations = append(rep.Violations, "overload: sweep measured zero throughput")
		} else {
			target := *overload * satRPS
			fmt.Fprintf(os.Stderr, "ccload: overload %.1fx saturation (%.1f req/s open loop)\n", *overload, target)
			res, err := loadgen.Run(ctx, loadgen.Config{
				BaseURL:    *url,
				Duration:   *duration,
				RatePerSec: target,
				Mix:        mix,
				Seed:       *seed + 104729,
			})
			if err != nil {
				fatal(err)
			}
			admitted := res.Requests - res.Shed - res.Errors
			frac := 0.0
			if res.Requests > 0 {
				frac = float64(res.Shed) / float64(res.Requests)
			}
			fmt.Fprintf(os.Stderr, "ccload: overload %6.1f req/s admitted  p50=%.2fms p99=%.2fms  shed=%d/%d (%.1f%%) errs=%d 5xx=%d\n",
				res.ThroughputRPS, res.P50MS, res.P99MS, res.Shed, res.Requests, frac*100, res.Errors, res.Status5xx)
			rep.Overload = &res
			og := &overloadReport{
				Factor:        *overload,
				SaturationRPS: satRPS,
				TargetRPS:     target,
				ShedFraction:  frac,
				ShedMin:       *shedMin,
				ShedMax:       *shedMax,
				AdmittedP99MS: res.P99MS,
			}
			// The overload run is open loop, so admitted latency includes
			// queueing-delay correction (time from scheduled arrival, not
			// send) — a separate, looser SLO than the in-capacity sweep's.
			slo := *ovlSLO
			if slo == 0 {
				slo = *sloP99
			}
			if slo > 0 {
				og.SLOP99MS = float64(slo) / float64(time.Millisecond)
			}
			og.Pass = true
			fail := func(format string, args ...any) {
				og.Pass = false
				rep.Violations = append(rep.Violations, "overload: "+fmt.Sprintf(format, args...))
			}
			if res.Status5xx > 0 {
				fail("%d 5xx responses (server must shed with 429, not fail)", res.Status5xx)
			}
			if res.Errors > 0 {
				fail("%d errors on admitted requests (of %d admitted)", res.Errors, admitted)
			}
			if res.ShedNoRetryAfter > 0 {
				fail("%d shed responses without a usable Retry-After header", res.ShedNoRetryAfter)
			}
			if frac < *shedMin || frac > *shedMax {
				fail("shed fraction %.3f outside [%.3f, %.3f]", frac, *shedMin, *shedMax)
			}
			if og.SLOP99MS > 0 && res.P99MS > og.SLOP99MS {
				fail("admitted p99 %.2fms > SLO %.2fms", res.P99MS, og.SLOP99MS)
			}
			rep.OverloadGate = og
		}
	}

	if traceCheck != nil {
		rep.TraceCheck = *traceCheck
	} else {
		rep.TraceCheck.Err = "no cache-miss trace sampled in any run"
	}
	if m, err := loadgen.FetchMetrics(ctx, nil, *url); err != nil {
		rep.Violations = append(rep.Violations, "metrics: "+err.Error())
	} else if m.Traces != nil {
		rep.TracesDropped = m.Traces.Dropped
	}

	// Gate evaluation. Violations are always reported; -gate decides
	// whether they are fatal.
	if *sloP99 > 0 {
		gated := rep.Saturation[0]
		if *sloLevel > 0 {
			found := false
			for _, r := range rep.Saturation {
				if r.Concurrency == *sloLevel {
					gated, found = r, true
					break
				}
			}
			if !found {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("slo-level %d not in sweep %v", *sloLevel, lvls))
			}
		}
		slo := &sloReport{
			P99MS:         float64(*sloP99) / float64(time.Millisecond),
			Concurrency:   gated.Concurrency,
			ObservedP99MS: gated.P99MS,
		}
		slo.Pass = slo.ObservedP99MS <= slo.P99MS
		rep.SLO = slo
		if !slo.Pass {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("p99 SLO: %.2fms > %.2fms at concurrency %d",
					slo.ObservedP99MS, slo.P99MS, slo.Concurrency))
		}
	}
	if !rep.TraceCheck.OK {
		rep.Violations = append(rep.Violations, "trace check: "+rep.TraceCheck.Err)
	}
	if rep.TracesDropped > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("trace buffer dropped %d traces", rep.TracesDropped))
	}
	for _, r := range rep.Saturation {
		if r.Errors > 0 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%d request errors at concurrency %d", r.Errors, r.Concurrency))
		}
	}

	// W3C trace-context round-trip gate: every run mints a traceparent per
	// request and checks the response echoes the same trace-id; a mismatch
	// anywhere means context propagation is broken.
	allRuns := make([]*loadgen.Result, 0, len(rep.Saturation)+2)
	for i := range rep.Saturation {
		allRuns = append(allRuns, &rep.Saturation[i])
	}
	allRuns = append(allRuns, rep.OpenLoop, rep.Overload)
	for _, r := range allRuns {
		if r == nil {
			continue
		}
		rep.TraceparentSent += r.TraceparentSent
		rep.TraceparentEchoMismatch += r.TraceparentEchoMismatch
	}
	if rep.TraceparentSent == 0 {
		rep.Violations = append(rep.Violations, "traceparent: no round-trips recorded (propagation check never ran)")
	}
	if rep.TraceparentEchoMismatch > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("traceparent: %d of %d responses echoed a different trace-id", rep.TraceparentEchoMismatch, rep.TraceparentSent))
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ccload: report written to %s\n", *out)
	}

	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "ccload: VIOLATION: %s\n", v)
		}
		if *gate {
			os.Exit(1)
		}
	} else {
		fmt.Fprintln(os.Stderr, "ccload: all gates passed")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccload:", err)
	os.Exit(2)
}
