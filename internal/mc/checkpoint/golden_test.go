package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hetarch/internal/mc"
)

// testdata/golden.jsonl pins the on-disk format. It was recorded by the
// json.Encoder writer that preceded the hand-written codec: goldenRuns
// under one checkpoint scope at 4 workers, so the shard lines of each run
// are in scheduling order. Two lines were then edited by hand: a
// {"type":"future",...} line inserted after run 1's shard 22, and run 1's
// shard 17 rewritten with spaces and reordered keys (goldenEdited is the
// line as the writer recorded it).
const (
	goldenPath   = "testdata/golden.jsonl"
	goldenSHA256 = "9cea4a20c14cb3cc04054dd9e8dd4b5e6b71709b5d307843f4e2d82fbc8cbe88"
	goldenShards = 120
	goldenEdited = `{"type":"shard","run":1,"run_shots":10240,"run_seed":4611686018427387904,"shard_size":256,"shard":17,"shard_seed":-2772681139146566043,"shots":256,"errors":55}`
	goldenFuture = `{"type":"future","run":1,"shard":3,"note":"a record type this format does not define yet"}`
)

var (
	goldenMeta = Meta{Type: "checkpoint", RunID: "golden", Tool: "test", Experiment: "golden", Scale: "quick",
		Seed: 7, ShardSize: mc.DefaultShardSize, CreatedAt: "2026-10-19T00:00:00Z"}
	goldenRuns = []mc.Config{
		{Shots: 10_000, Seed: 7, Workers: 4},
		{Shots: 10_240, Seed: 1 << 62, Workers: 4},
		{Shots: 9_999, Seed: -5, Workers: 4},
	}
)

// goldenCopy checks the golden file's bytes against their pinned digest
// and copies it into a temp dir, where Open may take its lock.
func goldenCopy(t *testing.T) (path string, data []byte) {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != goldenSHA256 {
		t.Fatalf("%s changed: sha256 %x, want %s", goldenPath, sum, goldenSHA256)
	}
	path = filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestGoldenOpen(t *testing.T) {
	path, _ := goldenCopy(t)
	f, err := Open(path, goldenMeta)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Len() != goldenShards || f.Resumed() != goldenShards {
		t.Fatalf("Len %d, Resumed %d; want %d each", f.Len(), f.Resumed(), goldenShards)
	}
	if f.Meta() != goldenMeta {
		t.Fatalf("Meta %+v, want %+v", f.Meta(), goldenMeta)
	}
}

// TestGoldenResumeReplaysEveryShard: resuming the golden campaign executes
// no shard, pools tallies bit-identical to an uncheckpointed run and
// leaves the file byte for byte as it was.
func TestGoldenResumeReplaysEveryShard(t *testing.T) {
	path, data := goldenCopy(t)
	f, err := Open(path, goldenMeta)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracker{}
	ctx := mc.WithCheckpoint(context.Background(), f)
	for i, cfg := range goldenRuns {
		got, err := mc.RunContext(ctx, cfg, tr.runner)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustRun(t, cfg); got != want {
			t.Fatalf("run %d: resumed %+v != uncheckpointed %+v", i, got, want)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(tr.ran) != 0 {
		t.Fatalf("resume executed shards %v", tr.ran)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("resume modified the checkpoint (%v)", err)
	}
}

// TestGoldenRecordWritesSameLines: recording the golden campaign afresh
// writes the golden header and, as a set, its shard lines with the edited
// line in the form the writer recorded.
func TestGoldenRecordWritesSameLines(t *testing.T) {
	_, data := goldenCopy(t)
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i, l := range want {
		if strings.HasPrefix(l, `{ "shard": 17,`) {
			want[i] = goldenEdited
		}
	}
	if i := slices.Index(want, goldenFuture); i >= 0 {
		want = slices.Delete(want, i, i+1)
	}

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	f, err := Open(path, goldenMeta)
	if err != nil {
		t.Fatal(err)
	}
	ctx := mc.WithCheckpoint(context.Background(), f)
	for _, cfg := range goldenRuns {
		if _, err := mc.RunContext(ctx, cfg, testRunner); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(string(written), "\n"), "\n")
	if got[0] != want[0] {
		t.Fatalf("header %s, want %s", got[0], want[0])
	}
	slices.Sort(got[1:])
	slices.Sort(want[1:])
	if len(got) != 1+goldenShards || !slices.Equal(got, want) {
		t.Fatalf("recorded shard lines differ from the golden file's:\n got: %q\nwant: %q", got[1:], want[1:])
	}
}
