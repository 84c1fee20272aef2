// Package checkpoint persists the mc engine's per-shard tallies to a
// crash-tolerant JSONL file so an interrupted Monte Carlo campaign can
// resume without repeating completed work.
//
// The artifact is line-oriented, one JSON object per line, written to the
// OS per record (internal/jsonl): killing the process at any point loses
// at most the line being written, and the reader drops a torn trailing
// line instead of failing.
//
//	{"type":"checkpoint", ...}   exactly one, first line: the run identity
//	{"type":"shard", ...}        one per completed shard
//
// A checkpoint is only valid for the exact run that produced it: the meta
// line records the experiment, scale, seed, shot override, shard size, and
// git revision, and Open refuses a file whose identity does not match —
// resuming under different parameters would silently splice incompatible
// streams. Within a run, shards are keyed by the engine's RunKey (run
// sequence number, shots, seed, shard size) plus the shard index, and each
// record carries the shard's stream seed as a final guard: a lookup whose
// seed disagrees is treated as a miss.
//
// Because the engine's shard decomposition is deterministic and a
// completed shard's tally is independent of scheduling, a resumed run that
// skips the recorded shards produces pooled counts bit-identical to an
// uninterrupted run at any worker count.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"hetarch/internal/bench"
	"hetarch/internal/jsonl"
	"hetarch/internal/mc"
	"hetarch/internal/obs/runlog"
)

// Structured-log events (no-ops until the CLI installs a run logger).
var evTornTail = runlog.Event("mc.checkpoint_torn_tail")

// Meta identifies the run a checkpoint belongs to. Every field that
// changes the shard decomposition or the sampled streams participates in
// the compatibility check.
type Meta struct {
	Type string `json:"type"` // "checkpoint"
	// RunID is the ledger run identity of the invocation that created the
	// checkpoint. It is provenance, not identity: a resumed run mints a new
	// run ID but may adopt a checkpoint from an earlier one, so RunID is
	// deliberately excluded from the compatibility check. The resuming
	// run's ledger envelope records it as resumed_from.
	RunID       string `json:"run_id,omitempty"`
	Tool        string `json:"tool,omitempty"`
	Experiment  string `json:"experiment"`
	Scale       string `json:"scale,omitempty"` // "quick" or "full"
	Seed        int64  `json:"seed"`
	Shots       int    `json:"shots,omitempty"` // CLI -shots override; 0 = scale default
	ShardSize   int    `json:"shard_size"`
	GitRevision string `json:"git_revision,omitempty"`
	CreatedAt   string `json:"created_at,omitempty"` // RFC3339
}

// NewMeta fills a Meta for the current build: shard size from the engine
// default, git revision from bench.VCSRevision when available.
func NewMeta(tool, experiment, scale string, seed int64, shots int) Meta {
	m := Meta{
		Type:       "checkpoint",
		Tool:       tool,
		Experiment: experiment,
		Scale:      scale,
		Seed:       seed,
		Shots:      shots,
		ShardSize:  mc.DefaultShardSize,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	m.GitRevision, _ = bench.VCSRevision()
	return m
}

// compatible reports whether a checkpoint written under prev can be
// resumed by a run described by cur.
func compatible(prev, cur Meta) error {
	switch {
	case prev.Experiment != cur.Experiment:
		return fmt.Errorf("experiment %q != %q", prev.Experiment, cur.Experiment)
	case prev.Scale != cur.Scale:
		return fmt.Errorf("scale %q != %q", prev.Scale, cur.Scale)
	case prev.Seed != cur.Seed:
		return fmt.Errorf("seed %d != %d", prev.Seed, cur.Seed)
	case prev.Shots != cur.Shots:
		return fmt.Errorf("shots %d != %d", prev.Shots, cur.Shots)
	case prev.ShardSize != cur.ShardSize:
		return fmt.Errorf("shard size %d != %d", prev.ShardSize, cur.ShardSize)
	case prev.GitRevision != "" && cur.GitRevision != "" && prev.GitRevision != cur.GitRevision:
		return fmt.Errorf("git revision %.12s != %.12s", prev.GitRevision, cur.GitRevision)
	}
	return nil
}

// shardRecord is one completed shard on disk. Record writes it as a
// canonical line (codec.go); load reads any JSON spelling of it.
type shardRecord struct {
	Type      string `json:"type"` // "shard"
	Run       int    `json:"run"`
	RunShots  int    `json:"run_shots"`
	RunSeed   int64  `json:"run_seed"`
	ShardSize int    `json:"shard_size"`
	Shard     int    `json:"shard"`
	ShardSeed int64  `json:"shard_seed"`
	Shots     int64  `json:"shots"`
	Errors    int64  `json:"errors"`
}

type entryKey struct {
	key   mc.RunKey
	shard int
}

type entryVal struct {
	seed  int64
	tally mc.Tally
}

// File is an open checkpoint store. It implements mc.Checkpoint; install
// it with mc.WithCheckpoint. Methods are safe for concurrent use by the
// engine's workers; every Record is flushed to the OS before returning.
type File struct {
	mu       sync.Mutex
	a        *jsonl.Appender
	line     []byte // Record's line buffer, reused under mu
	meta     Meta
	done     map[entryKey]entryVal
	resumed  int
	closed   bool
	lockPath string
}

// Open loads the checkpoint at path, validating that it belongs to the run
// described by meta, or creates a fresh one if the file does not exist.
// A crash-truncated trailing line is dropped, and the file rewritten
// without it, once the header has been validated.
//
// Open first takes a pid+run-ID lockfile beside the JSONL (see lock.go):
// a checkpoint held by a live run fails with ErrLocked so two processes
// can never interleave shard records, while a lock left by a dead process
// is taken over silently. Close releases the lock.
func Open(path string, meta Meta) (*File, error) {
	meta.Type = "checkpoint"
	lockPath, err := acquireLock(path, meta.RunID)
	if err != nil {
		return nil, err
	}
	cf, err := open(path, meta)
	if err != nil {
		os.Remove(lockPath)
		return nil, err
	}
	cf.lockPath = lockPath
	return cf, nil
}

func open(path string, meta Meta) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	lines, torn := jsonl.Split(data)
	cf := &File{meta: meta, done: make(map[entryKey]entryVal, len(lines))}
	if len(lines) > 0 {
		if err := cf.load(path, lines); err != nil {
			return nil, err
		}
	}
	if len(torn) > 0 {
		// The lockfile makes this process the only writer, so the torn
		// tail is cut from the file rather than healed into an interior
		// line, which load would reject on the next Open.
		runlog.L().Warn(evTornTail, "path", path, "shards", len(cf.done))
		if err := jsonl.WriteFile(path, data[:len(data)-len(torn)]); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	a, _, err := jsonl.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	cf.a = a
	if len(lines) == 0 {
		if err := a.Append(meta); err != nil {
			a.Close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	return cf, nil
}

// load validates the header line against the run in f.meta and replays
// the shard records, adopting the file's own meta. A canonical shard line,
// the only kind Record writes, is parsed without allocating; every other
// line goes through json.Unmarshal, so a record spelled differently (by
// hand, or by a future writer) loads as it always has, a line of another
// type is skipped and a malformed one is refused.
func (f *File) load(path string, lines [][]byte) error {
	var prev Meta
	if err := json.Unmarshal(lines[0], &prev); err != nil || prev.Type != "checkpoint" {
		return fmt.Errorf("checkpoint %s: first record is not a checkpoint header", path)
	}
	if err := compatible(prev, f.meta); err != nil {
		return fmt.Errorf("checkpoint %s was written by a different run (%v); delete it or rerun with matching flags", path, err)
	}
	for i, raw := range lines[1:] {
		rec, ok := parseShard(raw)
		if !ok {
			// Unmarshal into its own variable: &rec would move rec to the
			// heap for every line.
			var slow shardRecord
			if err := json.Unmarshal(raw, &slow); err != nil {
				return fmt.Errorf("checkpoint %s: record %d: %w", path, i+2, err)
			}
			if slow.Type != "shard" {
				continue // forward compatibility
			}
			rec = slow
		}
		k := entryKey{mc.RunKey{Run: rec.Run, Shots: rec.RunShots, Seed: rec.RunSeed, ShardSize: rec.ShardSize}, rec.Shard}
		f.done[k] = entryVal{seed: rec.ShardSeed, tally: mc.Tally{Shots: rec.Shots, Errors: rec.Errors}}
	}
	f.meta, f.resumed = prev, len(f.done)
	return nil
}

func record(k entryKey, v entryVal) shardRecord {
	return shardRecord{
		Type:      "shard",
		Run:       k.key.Run,
		RunShots:  k.key.Shots,
		RunSeed:   k.key.Seed,
		ShardSize: k.key.ShardSize,
		Shard:     k.shard,
		ShardSeed: v.seed,
		Shots:     v.tally.Shots,
		Errors:    v.tally.Errors,
	}
}

// Meta returns the identity the checkpoint was created under. For a
// resumed file this is the original producer's meta — its RunID is the
// run that started the campaign, which the resuming run records as its
// ledger resumed_from.
func (f *File) Meta() Meta {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meta
}

// Resumed returns the number of shard tallies loaded from a pre-existing
// file — zero for a fresh checkpoint.
func (f *File) Resumed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resumed
}

// Len returns the number of shard tallies currently recorded.
func (f *File) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.done)
}

// Lookup implements mc.Checkpoint: it returns the recorded tally of the
// shard, guarding on the shard's stream seed.
func (f *File) Lookup(key mc.RunKey, sh mc.Shard) (mc.Tally, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.done[entryKey{key, sh.Index}]
	if !ok || v.seed != sh.Seed {
		return mc.Tally{}, false
	}
	return v.tally, true
}

// Record implements mc.Checkpoint: it appends the shard's tally as one
// canonical line, built in a buffer the File reuses, and hands it to the
// OS in a single write(2) before returning, so a kill after Record cannot
// lose the shard. Recording a new shard allocates nothing once the map has
// room. Re-recording an already-present shard is a no-op.
func (f *File) Record(key mc.RunKey, sh mc.Shard, t mc.Tally) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("checkpoint: closed")
	}
	k := entryKey{key, sh.Index}
	if _, ok := f.done[k]; ok {
		return nil
	}
	v := entryVal{seed: sh.Seed, tally: t}
	f.line = appendShard(f.line[:0], record(k, v))
	if err := f.a.AppendLine(f.line); err != nil {
		return err
	}
	f.done[k] = v
	return nil
}

// Close closes the file and releases the double-writer lock. Records
// already written are durable; Close exists to release the handle and the
// lock, not to finalize.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.a.Close()
	if f.lockPath != "" {
		os.Remove(f.lockPath)
	}
	return err
}
