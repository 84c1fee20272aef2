package checkpoint

import (
	"path/filepath"
	"testing"

	"hetarch/internal/mc"
)

// recordShards records n shards of run `run` into f.
func recordShards(t *testing.T, f *File, run, n int) {
	t.Helper()
	key := mc.RunKey{Run: run, Shots: n * mc.DefaultShardSize, Seed: 7, ShardSize: mc.DefaultShardSize}
	for i := 0; i < n; i++ {
		sh := mc.Shard{Index: i, Shots: mc.DefaultShardSize, Seed: mc.StreamSeed(7, uint64(i))}
		if err := f.Record(key, sh, mc.Tally{Shots: mc.DefaultShardSize, Errors: int64(i % 50)}); err != nil {
			t.Fatal(err)
		}
	}
}

// writeCheckpoint creates a checkpoint of n shard records at path.
func writeCheckpoint(t *testing.T, path string, n int) {
	t.Helper()
	f, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	recordShards(t, f, 0, n)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordAllocs: recording a new shard builds its line in the File's
// buffer and hands it to one write(2), without allocating. Reopening a
// 4,096-record file sizes the map for the 1,001 shards recorded here.
func TestRecordAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	writeCheckpoint(t, path, 4096)
	f, err := Open(path, meta())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	key := mc.RunKey{Run: 1, Shots: 1 << 20, Seed: -7, ShardSize: mc.DefaultShardSize}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sh := mc.Shard{Index: i, Shots: mc.DefaultShardSize, Seed: mc.StreamSeed(-7, uint64(i))}
		if err := f.Record(key, sh, mc.Tally{Shots: mc.DefaultShardSize, Errors: int64(i)}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Record makes %v allocations per new shard, want 0", allocs)
	}
}

// TestOpenAllocs: replaying a canonical shard line allocates nothing, so
// opening 10,000 records costs only a few dozen allocations more than
// opening 1,000, where one per record would cost 9,000 more. The few
// dozen are storage that grows with the file in steps: jsonl.Split's line
// slice, which doubles, and the map's, which Go 1.24 allocates as one
// table per 896 entries and older runtimes extend with overflow buckets.
func TestOpenAllocs(t *testing.T) {
	const slack = 64
	opens := func(records int) float64 {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		writeCheckpoint(t, path, records)
		return testing.AllocsPerRun(3, func() {
			f, err := Open(path, meta())
			if err != nil {
				t.Fatal(err)
			}
			if f.Resumed() != records {
				t.Fatalf("resumed %d of %d records", f.Resumed(), records)
			}
			f.Close()
		})
	}
	small, large := opens(1_000), opens(10_000)
	if large > small+slack {
		t.Fatalf("Open makes %v allocations at 1,000 records and %v at 10,000, want at most %d more", small, large, slack)
	}
	t.Logf("Open allocations: %v at 1,000 records, %v at 10,000", small, large)
}
