package mc

import (
	"testing"

	"hetarch/internal/obs"
	"hetarch/internal/obs/trace"
)

// TestTracingInvariant is the flight profiler's core contract at the
// engine level: arming the trace collector (at any sampling stride) must
// not change pooled counts at any worker count, while still recording
// shard events and feeding the shard-timing histograms.
func TestTracingInvariant(t *testing.T) {
	cfg := Config{Shots: 2000, Seed: 99, ShardSize: 128}
	base := mustRun(t, cfg)

	trace.Default.Enable(1<<12, 2)
	defer trace.Default.Disable()
	wall0 := obs.H("mc.shard_wall_ns").Count()
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		if got := mustRun(t, c); got != base {
			t.Fatalf("workers=%d traced tally %+v != untraced %+v", workers, got, base)
		}
	}
	if obs.H("mc.shard_wall_ns").Count()-wall0 != 2*16 {
		t.Fatalf("shard_wall_ns observed %d shards, want 32", obs.H("mc.shard_wall_ns").Count()-wall0)
	}
	if util := obs.G("mc.worker_utilization").Value(); util <= 0 || util > 1 {
		t.Fatalf("worker_utilization = %v, want (0, 1]", util)
	}

	// Sampling stride 2 over 16 shards per run: 8 traced shards each, and
	// one merge span per run, regardless of worker count.
	var shardEvents, mergeEvents int
	for _, e := range trace.Default.Events() {
		switch e.Cat {
		case "mc.shard":
			shardEvents++
			if e.Index%2 != 0 {
				t.Fatalf("shard event for unsampled index %d", e.Index)
			}
		case "mc.merge":
			mergeEvents++
		}
	}
	if shardEvents != 16 {
		t.Fatalf("shard events = %d, want 16 (8 per run)", shardEvents)
	}
	if mergeEvents != 2 {
		t.Fatalf("merge events = %d, want 2", mergeEvents)
	}
}
