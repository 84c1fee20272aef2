package runtimemetrics

import (
	"runtime"
	"strings"
	"testing"

	"hetarch/internal/obs"
)

func TestSampleFillsGauges(t *testing.T) {
	reg := obs.NewRegistry()
	// The /memory/classes/* accounting is only flushed at GC safepoints; in
	// a fresh test process it can legitimately read 0 until the first cycle.
	runtime.GC()
	Sample(reg)
	snap := reg.Snapshot()

	for _, name := range []string{
		"runtime.heap_alloc_bytes",
		"runtime.total_alloc_bytes",
		"runtime.mallocs",
		"runtime.gc_cycles",
		"runtime.goroutines",
		"runtime.gomaxprocs",
		"runtime.gc_pause_p50_ns",
		"runtime.gc_pause_p99_ns",
		"runtime.sched_latency_p50_ns",
		"runtime.sched_latency_p99_ns",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %q not registered by Sample", name)
		}
		if !strings.HasPrefix(name, "runtime.") {
			t.Fatalf("gauge %q outside the runtime. namespace", name)
		}
	}
	if snap.Gauge("runtime.heap_alloc_bytes") <= 0 {
		t.Fatal("heap_alloc_bytes not positive")
	}
	if snap.Gauge("runtime.goroutines") < 1 {
		t.Fatal("goroutines < 1")
	}
	if got, want := snap.Gauge("runtime.gomaxprocs"), float64(runtime.GOMAXPROCS(0)); got != want {
		t.Fatalf("gomaxprocs = %v, want %v", got, want)
	}
}

// TestSampleTracksAllocation: allocating between samples must move the
// cumulative allocation gauges monotonically — reading allocation volume
// as a delta between two snapshots depends on it.
func TestSampleTracksAllocation(t *testing.T) {
	reg := obs.NewRegistry()
	Sample(reg)
	before := reg.Snapshot()

	sink := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink

	Sample(reg)
	after := reg.Snapshot()
	if after.Gauge("runtime.total_alloc_bytes") <= before.Gauge("runtime.total_alloc_bytes") {
		t.Fatal("total_alloc_bytes did not grow across 1 MB of allocation")
	}
	if after.Gauge("runtime.mallocs") <= before.Gauge("runtime.mallocs") {
		t.Fatal("mallocs did not grow")
	}
}
