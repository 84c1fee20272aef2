package distill

import (
	"context"
	"runtime"
	"testing"
)

// runEnsemble is RunEnsembleContext without a deadline; any error fails tb.
func runEnsemble(tb testing.TB, cfg Config, replicas int, horizonMicros float64, workers int) EnsembleStats {
	tb.Helper()
	s, err := RunEnsembleContext(context.Background(), cfg, replicas, horizonMicros, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestRunEnsembleDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := DefaultConfig(12.5, true)
	cfg.Seed = 5
	base := runEnsemble(t, cfg, 6, 5000, 1)
	if base.Replicas != 6 {
		t.Fatalf("replica accounting wrong: %+v", base)
	}
	if base.Generated == 0 {
		t.Fatal("ensemble generated nothing")
	}
	for _, w := range []int{4, runtime.NumCPU()} {
		if got := runEnsemble(t, cfg, 6, 5000, w); got != base {
			t.Fatalf("workers=%d: %+v != workers=1 %+v", w, got, base)
		}
	}
	if again := runEnsemble(t, cfg, 6, 5000, 4); again != base {
		t.Fatal("ensemble not reproducible")
	}
}

func TestRunEnsemblePoolsAcrossReplicas(t *testing.T) {
	cfg := DefaultConfig(12.5, true)
	cfg.Seed = 7
	one := runEnsemble(t, cfg, 1, 5000, 1)
	three := runEnsemble(t, cfg, 3, 5000, 1)
	if three.Delivered < one.Delivered {
		t.Fatalf("pooled delivered (%d) below single replica (%d)", three.Delivered, one.Delivered)
	}
	// The mean rate stays in the same regime as a single trajectory.
	if one.Delivered > 0 && three.DeliveredRatePerSecond() <= 0 {
		t.Fatal("mean rate lost")
	}
}
