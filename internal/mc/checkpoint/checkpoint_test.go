package checkpoint

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hetarch/internal/mc"
	"hetarch/internal/mc/chaos"
	"hetarch/internal/splitmix"
)

func testRunner() mc.ShardRunner {
	return func(sh mc.Shard) mc.Tally {
		rng := splitmix.New(sh.Seed)
		var t mc.Tally
		for i := 0; i < sh.Shots; i++ {
			t.Shots++
			if rng.Float64() < 0.21 {
				t.Errors++
			}
		}
		return t
	}
}

// trackingRunner records which shard indices actually executed.
type tracker struct {
	mu  sync.Mutex
	ran map[int]int
}

func (tr *tracker) runner() mc.ShardRunner {
	inner := testRunner()
	return func(sh mc.Shard) mc.Tally {
		tr.mu.Lock()
		if tr.ran == nil {
			tr.ran = map[int]int{}
		}
		tr.ran[sh.Index]++
		tr.mu.Unlock()
		return inner(sh)
	}
}

func meta() Meta { return NewMeta("test", "unit", "quick", 7, 0) }

// mustRun is an uninterrupted, uncheckpointed run, failing the test on
// error.
func mustRun(t *testing.T, cfg mc.Config) mc.Tally {
	t.Helper()
	got, err := mc.RunContext(context.Background(), cfg, testRunner)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestChaosResumeRoundTripBitIdentical is the acceptance invariant: kill a
// run at a (seed-chosen) random shard boundary, resume from the
// checkpoint, and the pooled counts must be bit-identical to an
// uninterrupted run — without re-executing any completed shard.
func TestChaosResumeRoundTripBitIdentical(t *testing.T) {
	cfg := mc.Config{Shots: 10_000, Seed: 7, Workers: 1}
	want := mustRun(t, cfg)
	numShards := (cfg.Shots + mc.DefaultShardSize - 1) / mc.DefaultShardSize

	for _, chaosSeed := range []int64{1, 2, 3, 99} {
		path := filepath.Join(t.TempDir(), "ck.jsonl")

		// Interrupted run: cancel at a random shard boundary.
		in := chaos.New(chaosSeed)
		k := in.Cutpoint(numShards)
		ctx, cancel := context.WithCancel(context.Background())
		in.CancelAfter(k, cancel)

		cp, err := Open(path, meta())
		if err != nil {
			t.Fatal(err)
		}
		partial, err := mc.RunContext(mc.WithCheckpoint(mc.WithFaultInjector(ctx, in), cp), cfg, testRunner)
		cancel()
		cp.Close()

		var pe *mc.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("chaos=%d: want PartialError, got %v", chaosSeed, err)
		}
		if partial.Shots >= want.Shots {
			t.Fatalf("chaos=%d: interruption did not interrupt (k=%d)", chaosSeed, k)
		}

		// Resume: same config, same checkpoint; completed shards must not
		// re-execute and the final tally must match bit for bit.
		cp2, err := Open(path, meta())
		if err != nil {
			t.Fatal(err)
		}
		if cp2.Resumed() != len(pe.Completed) {
			t.Fatalf("chaos=%d: resumed %d shards, interrupted run completed %d", chaosSeed, cp2.Resumed(), len(pe.Completed))
		}
		tr := &tracker{}
		got, err := mc.RunContext(mc.WithCheckpoint(context.Background(), cp2), cfg, tr.runner)
		cp2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("chaos=%d: resumed tally %+v != uninterrupted %+v", chaosSeed, got, want)
		}
		for _, i := range pe.Completed {
			if n := tr.ran[i]; n != 0 {
				t.Fatalf("chaos=%d: resumed run re-executed completed shard %d (%d times)", chaosSeed, i, n)
			}
		}
		if len(tr.ran) != numShards-len(pe.Completed) {
			t.Fatalf("chaos=%d: executed %d shards, want %d", chaosSeed, len(tr.ran), numShards-len(pe.Completed))
		}
	}
}

// TestChaosResumeAcrossWorkerCounts: interrupt at 8 workers, resume at 1
// and at 4 — worker count must stay a pure throughput knob through the
// checkpoint path.
func TestChaosResumeAcrossWorkerCounts(t *testing.T) {
	cfg := mc.Config{Shots: 20_000, Seed: 11, Workers: 8}
	want := mustRun(t, cfg)
	path := filepath.Join(t.TempDir(), "ck.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	in := chaos.New(4).CancelAfter(10, cancel)
	cp, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.RunContext(mc.WithCheckpoint(mc.WithFaultInjector(ctx, in), cp), cfg, testRunner); err == nil {
		t.Fatal("expected interruption")
	}
	cancel()
	cp.Close()

	for _, w := range []int{1, 4} {
		cp, err := Open(path, meta())
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Workers = w
		got, err := mc.RunContext(mc.WithCheckpoint(context.Background(), cp), c, testRunner)
		cp.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: resumed %+v != uninterrupted %+v", w, got, want)
		}
	}
}

// TestChaosResumeUnderShardPanics: a resume disturbed by fresh transient
// panics still converges to the exact fault-free counts.
func TestChaosResumeUnderShardPanics(t *testing.T) {
	cfg := mc.Config{Shots: 10_000, Seed: 3, Workers: 4}
	want := mustRun(t, cfg)
	path := filepath.Join(t.TempDir(), "ck.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	in := chaos.New(8).CancelAfter(12, cancel)
	cp, _ := Open(path, meta())
	mc.RunContext(mc.WithCheckpoint(mc.WithFaultInjector(ctx, in), cp), cfg, testRunner)
	cancel()
	cp.Close()

	// Resume with transient panics on three random shards.
	in2 := chaos.New(21)
	for _, s := range in2.PickShards(3, 40) {
		in2.PanicOnShard(s, 1)
	}
	cp2, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.RunContext(mc.WithCheckpoint(mc.WithFaultInjector(context.Background(), in2), cp2), cfg, testRunner)
	cp2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chaotic resume %+v != fault-free %+v", got, want)
	}
}

// TestTruncatedTailDropped: a checkpoint killed mid-write loses only the
// torn record; Open drops the tail, rewrites a clean file, and resumes.
func TestTruncatedTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cfg := mc.Config{Shots: 2_560, Seed: 7, Workers: 1}
	want := mustRun(t, cfg)

	cp, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.RunContext(mc.WithCheckpoint(context.Background(), cp), cfg, testRunner); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	// Tear the final record mid-line, as a kill during the write would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	cp2, err := Open(path, meta())
	if err != nil {
		t.Fatalf("truncated checkpoint must open: %v", err)
	}
	if cp2.Resumed() != 9 { // 10 shards recorded, last one torn
		t.Fatalf("resumed %d shards from torn file, want 9", cp2.Resumed())
	}
	got, err := mc.RunContext(mc.WithCheckpoint(context.Background(), cp2), cfg, testRunner)
	cp2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resume after torn tail %+v != %+v", got, want)
	}
}

// TestTornTailHealKeepsIntactPrefix: healing a torn checkpoint cuts only
// the torn bytes. The intact lines stay byte for byte and in file order,
// including record types this build skips.
func TestTornTailHealKeepsIntactPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cfg := mc.Config{Shots: 2_560, Seed: 7, Workers: 1}
	cp, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.RunContext(mc.WithCheckpoint(context.Background(), cp), cfg, testRunner); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n") // header, 10 shards, ""
	intact := lines[0] + `{"type":"future","note":"kept"}` + "\n" + strings.Join(lines[1:len(lines)-2], "")
	if err := os.WriteFile(path, []byte(intact+lines[len(lines)-2][:40]), 0o644); err != nil {
		t.Fatal(err)
	}

	cp2, err := Open(path, meta())
	if err != nil {
		t.Fatalf("torn checkpoint must open: %v", err)
	}
	defer cp2.Close()
	if cp2.Resumed() != 9 {
		t.Fatalf("resumed %d shards, want 9", cp2.Resumed())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != intact {
		t.Fatalf("healed file is not the intact prefix:\n got: %s\nwant: %s", got, intact)
	}
}

// TestOpenRejectsMismatchedRun: a checkpoint from a different experiment,
// seed, scale, shot budget, or revision must be refused, not spliced.
func TestOpenRejectsMismatchedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cp, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	// A torn tail a matching run would cut: a refused Open must leave the
	// file byte-identical.
	tornTail(t, path)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*Meta){
		"experiment": func(m *Meta) { m.Experiment = "other" },
		"scale":      func(m *Meta) { m.Scale = "full" },
		"seed":       func(m *Meta) { m.Seed = 8 },
		"shots":      func(m *Meta) { m.Shots = 123 },
		"shard size": func(m *Meta) { m.ShardSize = 64 },
	}
	for name, mutate := range mutations {
		m := meta()
		mutate(&m)
		if _, err := Open(path, m); err == nil {
			t.Errorf("%s mismatch accepted", name)
		} else if !strings.Contains(err.Error(), "different run") {
			t.Errorf("%s: unhelpful error: %v", name, err)
		}
		assertUnchanged(t, path, before)
	}

	// Matching meta still opens.
	cp2, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	cp2.Close()
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, []byte(`{"type":"header","tool":"hetarch"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, meta()); err == nil {
		t.Fatal("recorder artifact accepted as a checkpoint")
	}
	tornTail(t, path)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, meta()); err == nil {
		t.Fatal("torn recorder artifact accepted as a checkpoint")
	}
	assertUnchanged(t, path, before)
}

// tornTail appends a partial record, as a kill mid-append leaves.
func tornTail(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"shard","ru`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertUnchanged fails unless the file at path still holds want.
func assertUnchanged(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("refused Open modified the file:\n got: %q\nwant: %q", got, want)
	}
}

func TestLookupGuardsShardSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cp, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	key := mc.RunKey{Run: 0, Shots: 100, Seed: 7, ShardSize: 256}
	sh := mc.Shard{Index: 0, Shots: 100, Seed: mc.StreamSeed(7, 0)}
	if err := cp.Record(key, sh, mc.Tally{Shots: 100, Errors: 3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cp.Lookup(key, sh); !ok {
		t.Fatal("recorded shard not found")
	}
	wrong := sh
	wrong.Seed++
	if _, ok := cp.Lookup(key, wrong); ok {
		t.Fatal("lookup must miss on a stream-seed mismatch")
	}
	if _, ok := cp.Lookup(mc.RunKey{Run: 1, Shots: 100, Seed: 7, ShardSize: 256}, sh); ok {
		t.Fatal("lookup must miss on a run-key mismatch")
	}
}
