package mc_test

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetarch/internal/mc"
	"hetarch/internal/mc/chaos"
	"hetarch/internal/splitmix"
)

// countingRunner mimics a real sampler: results depend on the shard's RNG
// stream, so any resequencing or re-seeding bug changes the tally.
func countingRunner() mc.ShardRunner {
	return func(sh mc.Shard) mc.Tally {
		rng := splitmix.New(sh.Seed)
		var t mc.Tally
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
func mustRun(t *testing.T, cfg mc.Config) mc.Tally {
	t.Helper()
	got, err := mc.RunContext(context.Background(), cfg, countingRunner)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// perShardTallies returns the fault-free per-shard tallies of cfg, in
// shard order.
func perShardTallies(t *testing.T, cfg mc.Config) []mc.Tally {
	t.Helper()
	out, err := mc.MapShardsContext(context.Background(), cfg, countingRunner)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunContextCompletesLikeRun: an uninterrupted RunContext pools
// exactly the shard-order fold of the per-shard tallies.
func TestRunContextCompletesLikeRun(t *testing.T) {
	cfg := mc.Config{Shots: 10_000, Seed: 42, Workers: 4}
	var want mc.Tally
	for _, tl := range perShardTallies(t, cfg) {
		want.Add(tl)
	}
	if got := mustRun(t, cfg); got != want {
		t.Fatalf("RunContext %+v != per-shard fold %+v", got, want)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := mc.RunContext(ctx, mc.Config{Shots: 10_000, Seed: 42, Workers: 4}, countingRunner)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var pe *mc.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %T", err)
	}
	if len(pe.Completed) != 0 || got != (mc.Tally{}) {
		t.Fatalf("pre-cancelled run did work: %+v, %+v", pe, got)
	}
	if !strings.Contains(err.Error(), "0/40 shards") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestChaosCancelPartialIsExactPrefix: with one worker, cancelling after K
// completed shards must yield exactly the pooled tally of the first K
// shards of an uninterrupted run.
func TestChaosCancelPartialIsExactPrefix(t *testing.T) {
	cfg := mc.Config{Shots: 10_000, Seed: 42, Workers: 1}

	// Per-shard tallies of the fault-free run, for prefix sums.
	perShard := perShardTallies(t, cfg)

	for _, k := range []int{1, 7, 20, 39} {
		ctx, cancel := context.WithCancel(context.Background())
		in := chaos.New(int64(k)).CancelAfter(k, cancel)
		got, err := mc.RunContext(mc.WithFaultInjector(ctx, in), cfg, countingRunner)
		cancel()

		var pe *mc.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("k=%d: want *PartialError, got %v", k, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: cause should unwrap to context.Canceled: %v", k, err)
		}
		if len(pe.Completed) != k {
			t.Fatalf("k=%d: completed %d shards", k, len(pe.Completed))
		}
		var want mc.Tally
		for i := 0; i < k; i++ {
			if pe.Completed[i] != i {
				t.Fatalf("k=%d: single-worker completion set not a prefix: %v", k, pe.Completed)
			}
			want.Add(perShard[i])
		}
		if got != want {
			t.Fatalf("k=%d: partial tally %+v != prefix sum %+v", k, got, want)
		}
		if pe.ShotsDone != want.Shots {
			t.Fatalf("k=%d: ShotsDone %d != %d", k, pe.ShotsDone, want.Shots)
		}
	}
}

// TestChaosCancelPartialMatchesCompletedSet: with many workers, the
// completed set need not be a prefix, but the partial tally must still be
// exactly the sum of the fault-free per-shard tallies over that set.
func TestChaosCancelPartialMatchesCompletedSet(t *testing.T) {
	cfg := mc.Config{Shots: 20_000, Seed: 9, Workers: 8}
	perShard := perShardTallies(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	in := chaos.New(1).CancelAfter(5, cancel)
	got, err := mc.RunContext(mc.WithFaultInjector(ctx, in), cfg, countingRunner)
	cancel()

	var pe *mc.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if len(pe.Completed) == 0 || len(pe.Completed) == len(perShard) {
		t.Fatalf("degenerate completion set: %d/%d", len(pe.Completed), len(perShard))
	}
	var want mc.Tally
	for _, i := range pe.Completed {
		want.Add(perShard[i])
	}
	if got != want {
		t.Fatalf("partial tally %+v != completed-set sum %+v", got, want)
	}
}

// TestChaosSlowCancelStillInterrupts: a cancel func that takes 50 ms
// must still interrupt a run of trivial shards that the other workers
// could finish in that time, within the bound CancelAfter documents.
func TestChaosSlowCancelStillInterrupts(t *testing.T) {
	const k, workers, shards = 5, 4, 64
	cfg := mc.Config{Shots: shards * 16, ShardSize: 16, Seed: 3, Workers: workers}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := chaos.New(1).CancelAfter(k, func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	})
	_, err := mc.RunContext(mc.WithFaultInjector(ctx, in), cfg, countingRunner)
	var pe *mc.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if n := len(pe.Completed); n < k || n > k+2*(workers-1) {
		t.Fatalf("completed %d of %d shards, want %d to %d", n, shards, k, k+2*(workers-1))
	}
}

// TestChaosPanicRetryBitIdentical: transient injected panics (one per
// chosen shard) are absorbed by the engine's same-stream retry, leaving
// the pooled tally bit-identical to the fault-free run.
func TestChaosPanicRetryBitIdentical(t *testing.T) {
	cfg := mc.Config{Shots: 10_000, Seed: 42, Workers: 4}
	want := mustRun(t, cfg)

	in := chaos.New(3)
	picked := in.PickShards(5, 40)
	for _, s := range picked {
		in.PanicOnShard(s, 1)
	}
	got, err := mc.RunContext(mc.WithFaultInjector(context.Background(), in), cfg, countingRunner)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("retried run %+v != fault-free %+v", got, want)
	}
	if in.InjectedFaults() != len(picked) {
		t.Fatalf("injected %d faults, expected %d", in.InjectedFaults(), len(picked))
	}
}

// TestChaosPersistentPanicFailsCleanly: a shard that panics on every
// attempt must surface as a typed *ShardFault with a captured stack —
// never crash the process — and the partial tally must still cover the
// completed shards exactly.
func TestChaosPersistentPanicFailsCleanly(t *testing.T) {
	cfg := mc.Config{Shots: 10_000, Seed: 42, Workers: 1}
	perShard := perShardTallies(t, cfg)

	const bad = 3
	in := chaos.New(1).PanicOnShard(bad, 1+mc.DefaultShardRetries)
	got, err := mc.RunContext(mc.WithFaultInjector(context.Background(), in), cfg, countingRunner)

	var fault *mc.ShardFault
	if !errors.As(err, &fault) {
		t.Fatalf("want *ShardFault, got %v", err)
	}
	if fault.Shard != bad || fault.Attempts != 1+mc.DefaultShardRetries {
		t.Fatalf("fault %+v", fault)
	}
	if len(fault.Stack) == 0 || !strings.Contains(string(fault.Stack), "chaos") {
		t.Fatal("fault did not capture the panic stack")
	}
	var pe *mc.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %T", err)
	}
	var want mc.Tally
	for _, i := range pe.Completed {
		if i == bad {
			t.Fatal("faulted shard reported as completed")
		}
		want.Add(perShard[i])
	}
	if got != want {
		t.Fatalf("partial tally %+v != completed-set sum %+v", got, want)
	}
}

// TestChaosWorkerPanicIsolatedFromRealRunner: a panic raised by the shard
// runner itself (not the injector) is isolated and retried on a fresh
// worker, so per-worker state poisoned by the panic cannot leak into the
// retry.
func TestChaosWorkerPanicIsolatedFromRealRunner(t *testing.T) {
	cfg := mc.Config{Shots: 2_560, Seed: 5, Workers: 2}
	want := mustRun(t, cfg)

	// A runner whose worker state is corrupted by a one-time transient
	// panic on shard 4: the worker that panicked would mis-count every
	// subsequent shard if it were reused, so only a rebuilt worker keeps
	// the counts clean.
	var panicked atomic.Bool
	fresh := func() mc.ShardRunner {
		poisoned := false
		return func(sh mc.Shard) mc.Tally {
			if poisoned {
				return mc.Tally{Shots: int64(sh.Shots), Errors: -1}
			}
			if sh.Index == 4 && panicked.CompareAndSwap(false, true) {
				poisoned = true
				panic("runner: transient corruption")
			}
			return countingRunner()(sh)
		}
	}
	got, err := mc.RunContext(context.Background(), cfg, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("retry reused a poisoned worker: %+v != %+v", got, want)
	}
}

// memCheckpoint is an in-memory mc.Checkpoint for scoping tests: it records
// every (RunKey, shard) it sees so assertions can inspect run numbering.
type memCheckpoint struct {
	mu      sync.Mutex
	entries map[mc.RunKey]map[int]mc.Tally
	seeds   map[mc.RunKey]map[int]int64
	records int
	hits    int
}

func newMemCheckpoint() *memCheckpoint {
	return &memCheckpoint{entries: map[mc.RunKey]map[int]mc.Tally{}, seeds: map[mc.RunKey]map[int]int64{}}
}

func (m *memCheckpoint) Lookup(key mc.RunKey, sh mc.Shard) (mc.Tally, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.entries[key][sh.Index]
	if ok && m.seeds[key][sh.Index] != sh.Seed {
		return mc.Tally{}, false
	}
	if ok {
		m.hits++
	}
	return t, ok
}

func (m *memCheckpoint) Record(key mc.RunKey, sh mc.Shard, t mc.Tally) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[key] == nil {
		m.entries[key] = map[int]mc.Tally{}
		m.seeds[key] = map[int]int64{}
	}
	m.entries[key][sh.Index] = t
	m.seeds[key][sh.Index] = sh.Seed
	m.records++
	return nil
}

func (m *memCheckpoint) runNumbers() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	nums := map[int]bool{}
	for k := range m.entries {
		nums[k.Run] = true
	}
	out := make([]int, 0, len(nums))
	for n := range nums {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// nopCheckpoint records nothing and finds nothing.
type nopCheckpoint struct{}

func (nopCheckpoint) Lookup(mc.RunKey, mc.Shard) (mc.Tally, bool) { return mc.Tally{}, false }
func (nopCheckpoint) Record(mc.RunKey, mc.Shard, mc.Tally) error  { return nil }

// TestRunContextCheckpointAllocs: the checkpoint wrapper around each shard
// allocates nothing, so a checkpointed run makes as many allocations at
// 1,024 shards as at 16.
func TestRunContextCheckpointAllocs(t *testing.T) {
	ctx := mc.WithCheckpoint(context.Background(), nopCheckpoint{})
	runner := func() mc.ShardRunner {
		return func(sh mc.Shard) mc.Tally { return mc.Tally{Shots: int64(sh.Shots)} }
	}
	allocs := func(shards int) float64 {
		cfg := mc.Config{Shots: shards, ShardSize: 1, Seed: 1, Workers: 1}
		return testing.AllocsPerRun(10, func() {
			if _, err := mc.RunContext(ctx, cfg, runner); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(16), allocs(1024); few != many {
		t.Fatalf("RunContext makes %v allocations at 16 shards and %v at 1,024, want equal", few, many)
	}
}

// TestWithCheckpointScopesRunNumbering: two experiments running
// concurrently, each under its own WithCheckpoint scope, must number their
// sub-runs 0..N-1 independently — exactly as each would solo — so a scoped
// checkpoint is resumable no matter what else the process was doing.
func TestWithCheckpointScopesRunNumbering(t *testing.T) {
	const subRuns = 3
	runScoped := func(cp mc.Checkpoint, seed int64) (mc.Tally, error) {
		ctx := mc.WithCheckpoint(context.Background(), cp)
		var total mc.Tally
		for i := 0; i < subRuns; i++ {
			tl, err := mc.RunContext(ctx, mc.Config{Shots: 2000, Seed: seed + int64(i), Workers: 2}, countingRunner)
			if err != nil {
				return total, err
			}
			total.Add(tl)
		}
		return total, nil
	}

	cpA, cpB := newMemCheckpoint(), newMemCheckpoint()
	var wg sync.WaitGroup
	var tallyA, tallyB mc.Tally
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); tallyA, errA = runScoped(cpA, 100) }()
	go func() { defer wg.Done(); tallyB, errB = runScoped(cpB, 900) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}

	for name, cp := range map[string]*memCheckpoint{"A": cpA, "B": cpB} {
		got := cp.runNumbers()
		if len(got) != subRuns {
			t.Fatalf("scope %s: run numbers %v, want %d distinct", name, got, subRuns)
		}
		for i, n := range got {
			if n != i {
				t.Fatalf("scope %s: run numbers %v are not 0..%d", name, got, subRuns-1)
			}
		}
	}

	// A solo rerun against scope A's store must be served entirely from the
	// checkpoint (no new records) and pool to the identical tally.
	before := cpA.records
	tallyA2, err := runScoped(cpA, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tallyA2 != tallyA {
		t.Fatalf("scoped resume diverged: %+v != %+v", tallyA2, tallyA)
	}
	if cpA.records != before {
		t.Fatalf("resume re-recorded %d shards; want all served from checkpoint", cpA.records-before)
	}
	_ = tallyB
}

// TestWithCheckpointNilStore: a nil-store scope checkpoints nothing —
// not even into an outer scope it shadows — and must not panic.
func TestWithCheckpointNilStore(t *testing.T) {
	cfg := mc.Config{Shots: 1000, Seed: 5, Workers: 2}
	want := mustRun(t, cfg)
	outer := newMemCheckpoint()
	ctx := mc.WithCheckpoint(mc.WithCheckpoint(context.Background(), outer), nil)
	got, err := mc.RunContext(ctx, cfg, countingRunner)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("nil-store scope changed results: %+v != %+v", got, want)
	}
	if outer.records != 0 {
		t.Fatalf("nil-store scope leaked %d records into the outer store", outer.records)
	}
}

// TestChaosInjectorIsolatedPerContext: the fault injector is a binding of
// one run's context, not of the process. Two runs execute concurrently;
// the one whose context carries an injector that panics on every attempt
// of shard 3 must fail with a *ShardFault, while the other, with no
// injector, must return the fault-free tally.
func TestChaosInjectorIsolatedPerContext(t *testing.T) {
	cfg := mc.Config{Shots: 10_000, Seed: 42, Workers: 4}
	want := mustRun(t, cfg)

	const bad = 3
	in := chaos.New(1).PanicOnShard(bad, 1<<30)
	var wg sync.WaitGroup
	var faultErr, cleanErr error
	var clean mc.Tally
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, faultErr = mc.RunContext(mc.WithFaultInjector(context.Background(), in), cfg, countingRunner)
	}()
	go func() {
		defer wg.Done()
		clean, cleanErr = mc.RunContext(context.Background(), cfg, countingRunner)
	}()
	wg.Wait()

	var fault *mc.ShardFault
	if !errors.As(faultErr, &fault) || fault.Shard != bad {
		t.Fatalf("injected run: want *ShardFault on shard %d, got %v", bad, faultErr)
	}
	if cleanErr != nil {
		t.Fatalf("run without an injector failed: %v", cleanErr)
	}
	if clean != want {
		t.Fatalf("run without an injector %+v != fault-free %+v", clean, want)
	}
}
