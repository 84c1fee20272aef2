package mc

import (
	"context"
	"testing"

	"hetarch/internal/splitmix"
)

// countingRunner consumes the shard's RNG so shard results depend on the
// stream, mimicking a real sampler: errors = number of draws below p.
func countingRunner() ShardRunner {
	return func(sh Shard) Tally {
		rng := splitmix.New(sh.Seed)
		var t Tally
		for i := 0; i < sh.Shots; i++ {
			t.Shots++
			if rng.Float64() < 0.37 {
				t.Errors++
			}
		}
		return t
	}
}

// mustRun is an uninterrupted countingRunner run, failing the test on
// error.
func mustRun(t *testing.T, cfg Config) Tally {
	t.Helper()
	got, err := RunContext(context.Background(), cfg, countingRunner)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestShardDecompositionCoversBudget(t *testing.T) {
	for _, shots := range []int{1, 255, 256, 257, 1000, 4096, 100_000} {
		cfg := Config{Shots: shots, Seed: 7}
		var sum int
		seen := map[int64]bool{}
		for i, sh := range cfg.shards() {
			if sh.Index != i {
				t.Fatalf("shard %d has index %d", i, sh.Index)
			}
			if sh.Shots <= 0 || sh.Shots > DefaultShardSize {
				t.Fatalf("shard %d has %d shots", i, sh.Shots)
			}
			if seen[sh.Seed] {
				t.Fatalf("duplicate shard seed %d", sh.Seed)
			}
			seen[sh.Seed] = true
			sum += sh.Shots
		}
		if sum != shots {
			t.Fatalf("shots=%d: shards cover %d", shots, sum)
		}
	}
	if got := (Config{Shots: 0}).shards(); got != nil {
		t.Fatalf("zero budget should produce no shards, got %d", len(got))
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	base := mustRun(t, Config{Shots: 10_000, Seed: 42, Workers: 1})
	if base.Shots != 10_000 {
		t.Fatalf("pooled shots %d", base.Shots)
	}
	if base.Errors == 0 || base.Errors == base.Shots {
		t.Fatalf("degenerate tally %+v", base)
	}
	for _, w := range []int{2, 4, 8, 0} { // 0 = NumCPU
		got := mustRun(t, Config{Shots: 10_000, Seed: 42, Workers: w})
		if got != base {
			t.Fatalf("workers=%d: %+v != workers=1 %+v", w, got, base)
		}
	}
	// Repeatability at a fixed worker count.
	again := mustRun(t, Config{Shots: 10_000, Seed: 42, Workers: 4})
	if again != base {
		t.Fatalf("re-run diverged: %+v != %+v", again, base)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a := mustRun(t, Config{Shots: 10_000, Seed: 1, Workers: 4})
	b := mustRun(t, Config{Shots: 10_000, Seed: 2, Workers: 4})
	if a == b {
		t.Fatal("different seeds should change the tally")
	}
}

func TestStreamSeedsDecorrelated(t *testing.T) {
	// Adjacent base seeds and adjacent stream indices must not collide —
	// the failure mode of the old seed+k*1e6 scheme.
	seen := map[int64]string{}
	for seed := int64(0); seed < 64; seed++ {
		for stream := uint64(0); stream < 64; stream++ {
			s := StreamSeed(seed, stream)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: (%d,%d) vs %s", seed, stream, prev)
			}
			seen[s] = ""
		}
	}
}

func TestMapShardsPreservesOrder(t *testing.T) {
	idx, err := MapShardsContext(context.Background(), Config{Shots: 4096, Seed: 9, Workers: 8, ShardSize: 64},
		func() func(Shard) int {
			return func(sh Shard) int { return sh.Index }
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 64 {
		t.Fatalf("expected 64 shards, got %d", len(idx))
	}
	for i, v := range idx {
		if v != i {
			t.Fatalf("slot %d holds shard %d", i, v)
		}
	}
}

func TestResolveWorkers(t *testing.T) {
	if ResolveWorkers(3) != 3 {
		t.Fatal("positive count must pass through")
	}
	if ResolveWorkers(0) < 1 || ResolveWorkers(-1) < 1 {
		t.Fatal("non-positive count must resolve to at least one worker")
	}
}
