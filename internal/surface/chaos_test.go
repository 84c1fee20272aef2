package surface

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"hetarch/internal/mc"
	"hetarch/internal/mc/chaos"
	"hetarch/internal/mc/checkpoint"
)

// TestChaosSurfaceCancelResumeBitIdentical drives the surface-code memory
// experiment through an interrupt at a shard boundary and a checkpointed
// resume; the resumed Result must be bit-identical to an uninterrupted run.
func TestChaosSurfaceCancelResumeBitIdentical(t *testing.T) {
	e, err := New(DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	const shots, seed, workers = 4096, 7, 4
	want := run(t, e, shots, seed, workers)

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	meta := checkpoint.NewMeta("test", "surface", "quick", seed, 0)
	cp, err := checkpoint.Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := chaos.New(3).CancelAfter(5, cancel)
	partial, err := e.RunContext(mc.WithCheckpoint(mc.WithFaultInjector(ctx, in), cp), shots, seed, workers)
	cancel()
	cp.Close()

	var pe *mc.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *mc.PartialError, got %v", err)
	}
	if partial.Shots >= want.Shots {
		t.Fatal("interruption did not interrupt")
	}

	cp2, err := checkpoint.Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Resumed() != len(pe.Completed) {
		t.Fatalf("resumed %d shards, expected %d", cp2.Resumed(), len(pe.Completed))
	}
	got, err := e.RunContext(mc.WithCheckpoint(context.Background(), cp2), shots, seed, workers)
	cp2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed %+v != uninterrupted %+v", got, want)
	}
}

// TestChaosSurfacePanicRetryBitIdentical: a transient worker panic inside
// the real sampler/decoder pipeline is retried on a fresh worker without
// disturbing the counts.
func TestChaosSurfacePanicRetryBitIdentical(t *testing.T) {
	e, err := New(DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	const shots, seed = 4096, 5
	want := run(t, e, shots, seed, 2)

	in := chaos.New(9)
	for _, s := range in.PickShards(2, shots/mc.DefaultShardSize) {
		in.PanicOnShard(s, 1)
	}
	got, err := e.RunContext(mc.WithFaultInjector(context.Background(), in), shots, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("retried %+v != fault-free %+v", got, want)
	}
	if in.InjectedFaults() != 2 {
		t.Fatalf("injected %d faults, expected 2", in.InjectedFaults())
	}
}
