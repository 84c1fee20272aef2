// Package runtimemetrics feeds the Go runtime's own instrumentation
// (runtime/metrics) into the obs gauge registry, so the -metrics snapshot
// and the flight recorder's final snapshot capture allocation and
// scheduling behavior alongside the experiment counters. Every gauge is
// either cumulative or an end-of-run value, and each Sample overwrites all
// of them, so the CLI samples once, just before it reads the final
// snapshot.
//
// This is the signal that separates "the kernel got faster" from "the GC
// got quieter": a throughput win with flat runtime.total_alloc_bytes and
// gc_cycles is algorithmic; one that coincides with a collapse in
// allocation volume is a memory-management win (and may not survive a
// different heap). The perf work the ROADMAP gates on ≥10x shots/sec is
// judged against exactly this distinction.
//
// All metric names live under the "runtime." prefix and follow the
// registry's pkg.snake_case convention.
package runtimemetrics

import (
	"math"
	"runtime/metrics"

	"hetarch/internal/obs"
)

// samples maps the runtime/metrics names read onto the obs gauge each
// one feeds. Histogram-shaped metrics (GC pauses, scheduling latency)
// are summarized as approximate p50/p99 gauges instead.
var samples = []struct {
	runtime string
	gauge   string
}{
	{"/memory/classes/heap/objects:bytes", "runtime.heap_alloc_bytes"},
	{"/gc/heap/allocs:bytes", "runtime.total_alloc_bytes"},
	{"/gc/heap/allocs:objects", "runtime.mallocs"},
	{"/gc/cycles/total:gc-cycles", "runtime.gc_cycles"},
	{"/sched/goroutines:goroutines", "runtime.goroutines"},
	{"/sched/gomaxprocs:threads", "runtime.gomaxprocs"},
}

// hists maps histogram-shaped runtime metrics onto quantile gauges.
var hists = []struct {
	runtime string
	p50     string
	p99     string
}{
	{"/gc/pauses:seconds", "runtime.gc_pause_p50_ns", "runtime.gc_pause_p99_ns"},
	{"/sched/latencies:seconds", "runtime.sched_latency_p50_ns", "runtime.sched_latency_p99_ns"},
}

// descriptors builds the read batch once: the set of metrics is fixed.
var descriptors = func() []metrics.Sample {
	out := make([]metrics.Sample, 0, len(samples)+len(hists))
	for _, s := range samples {
		out = append(out, metrics.Sample{Name: s.runtime})
	}
	for _, h := range hists {
		out = append(out, metrics.Sample{Name: h.runtime})
	}
	return out
}()

// Sample reads the runtime metrics once and stores them into reg's
// gauges. It is cheap (one metrics.Read batch, ~microseconds) and safe to
// call concurrently with instrumented work.
func Sample(reg *obs.Registry) {
	batch := make([]metrics.Sample, len(descriptors))
	copy(batch, descriptors)
	metrics.Read(batch)
	for i, s := range samples {
		if v, ok := scalar(batch[i].Value); ok {
			reg.Gauge(s.gauge).Set(v)
		}
	}
	for i, h := range hists {
		v := batch[len(samples)+i].Value
		if v.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		fh := v.Float64Histogram()
		reg.Gauge(h.p50).Set(quantileNs(fh, 0.50))
		reg.Gauge(h.p99).Set(quantileNs(fh, 0.99))
	}
}

// scalar converts a runtime metric value to float64 (uint64 and float64
// kinds; histograms are handled separately).
func scalar(v metrics.Value) (float64, bool) {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64()), true
	case metrics.KindFloat64:
		return v.Float64(), true
	default:
		return 0, false
	}
}

// quantileNs extracts an approximate quantile from a runtime
// Float64Histogram of seconds, returned in nanoseconds. The value is the
// upper bound of the bucket containing the quantile — exact to the
// runtime's own bucket resolution. An empty histogram reports 0.
func quantileNs(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Bucket i spans Buckets[i]..Buckets[i+1]; report the finite
			// edge closest to the mass.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, +1) {
				hi = h.Buckets[i]
			}
			return hi * 1e9
		}
	}
	return 0
}
