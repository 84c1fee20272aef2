package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"hetarch/internal/mc"
	"hetarch/internal/mc/chaos"
	"hetarch/internal/mc/checkpoint"
)

// TestChaosFig9InterruptResumeBitIdentical is the end-to-end robustness
// contract at the experiment layer: interrupt the Fig 9 sweep mid-flight,
// reopen the checkpoint, rerun, and get a table bit-identical to one
// produced without any interruption. The sweep executes 60 sub-runs
// (5 codes x 6 Ts x 2 bases) in deterministic order, so the run-sequence
// checkpoint keys line up across the two processes-worth of work.
func TestChaosFig9InterruptResumeBitIdentical(t *testing.T) {
	sc := Quick()
	sc.Shots = 512 // 2 shards per sub-run keeps the chaos round fast
	sc.Workers = 4
	const seed = 3

	want, err := Fig9(context.Background(), sc, seed)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fig9.ck.jsonl")
	meta := checkpoint.NewMeta("test", "fig9", "quick", seed, sc.Shots)
	cp, err := checkpoint.Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := chaos.New(5).CancelAfter(37, cancel)
	_, err = Fig9(mc.WithCheckpoint(mc.WithFaultInjector(ctx, in), cp), sc, seed)
	cancel()
	cp.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want interruption, got %v", err)
	}

	cp2, err := checkpoint.Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Resumed() == 0 {
		t.Fatal("nothing checkpointed before the interrupt")
	}
	got, err := Fig9(mc.WithCheckpoint(context.Background(), cp2), sc, seed)
	cp2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed Fig9 table differs from uninterrupted run")
	}
}
