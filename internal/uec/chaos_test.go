package uec

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"hetarch/internal/mc"
	"hetarch/internal/mc/chaos"
	"hetarch/internal/mc/checkpoint"
	"hetarch/internal/qec"
)

// TestChaosUECCancelResumeBitIdentical interrupts the serialized UEC module
// at a shard boundary and resumes from the checkpoint; a multi-sub-run
// shape (both bases, like the experiment runners) exercises the run-sequence
// keying that distinguishes the two RunContext calls in the file.
func TestChaosUECCancelResumeBitIdentical(t *testing.T) {
	const shots, seed, workers = 2048, 7, 4

	bothBases := func(ctx context.Context) ([2]Result, error) {
		var out [2]Result
		for i, basis := range []byte{'Z', 'X'} {
			p := DefaultParams(qec.Steane(), 50, true)
			p.Basis = basis
			e, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.RunContext(ctx, shots, seed, workers)
			if err != nil {
				return out, err
			}
			out[i] = r
		}
		return out, nil
	}

	want, err := bothBases(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	meta := checkpoint.NewMeta("test", "uec", "quick", seed, 0)
	cp, err := checkpoint.Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// 2048 shots = 8 shards per basis; cancel inside the second sub-run so
	// the resume must splice shards from both run keys.
	in := chaos.New(1).CancelAfter(11, cancel)
	_, err = bothBases(mc.WithCheckpoint(mc.WithFaultInjector(ctx, in), cp))
	cancel()
	cp.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation, got %v", err)
	}

	cp2, err := checkpoint.Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Resumed() == 0 {
		t.Fatal("nothing checkpointed before the interrupt")
	}
	got, err := bothBases(mc.WithCheckpoint(context.Background(), cp2))
	cp2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed %+v != uninterrupted %+v", got, want)
	}
}
