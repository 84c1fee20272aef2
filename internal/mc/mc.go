// Package mc is the shared parallel Monte Carlo engine behind every
// shot-based experiment runner of the paper's evaluation section (surface,
// uec, distill ensembles, code teleportation — Sections 4 and 6). It shards
// a shot budget into fixed-size units of work, processes them on a pool of
// worker goroutines, and merges the results in shard order.
//
// The engine's contract is deterministic pooling: each shard draws from an
// independent RNG stream derived from the experiment seed with a
// splitmix64-style stream splitter, and the shard decomposition depends only
// on (shots, shard size) — never on the worker count or the scheduling
// interleaving. The pooled result of a run is therefore bit-identical for
// any number of workers, which is what lets `-workers N` be a pure
// throughput knob: `-workers 1` executes the same shards inline on the
// calling goroutine and produces the same counts as a 64-way run.
//
// Workers, not shards, own the expensive state (samplers, decoders, defect
// scratch): the newWorker factory is invoked once per goroutine, and the
// returned closure is called once per shard with the shard's stream seed.
package mc

import "runtime"

// DefaultShardSize is the shard granularity when Config.ShardSize is unset:
// a multiple of the 64-shot bit-parallel batch, small enough that even
// CI-scale budgets (~1500 shots) split across several workers, large enough
// that per-shard overhead (one RNG reseed, one tally merge) is
// invisible next to sampling and decoding.
const DefaultShardSize = 256

// Tally is the pooled outcome of a binomial Monte Carlo run.
type Tally struct {
	Shots  int64
	Errors int64
}

// Add accumulates another tally. Integer addition is commutative and
// associative, so pooling per-shard tallies in any order gives identical
// totals; the engine nevertheless folds in shard order.
func (t *Tally) Add(u Tally) {
	t.Shots += u.Shots
	t.Errors += u.Errors
}

// splitmix64 is the output mix of the SplitMix64 generator (Steele, Lea,
// Flood: "Fast splittable pseudorandom number generators"). It is used here
// as a stream splitter: statistically independent seeds from consecutive
// stream indices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StreamSeed derives the RNG seed of stream `stream` from the base seed:
// element stream+1 of the SplitMix64 sequence whose state starts at seed.
// Streams for distinct indices are decorrelated even for adjacent base
// seeds, unlike the seed+k*constant scheme this replaces.
func StreamSeed(seed int64, stream uint64) int64 {
	return int64(splitmix64(uint64(seed) + stream*0x9e3779b97f4a7c15))
}

// ResolveWorkers maps a configured worker count onto the effective one:
// n itself when positive, runtime.NumCPU() otherwise.
func ResolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Shard is one deterministic unit of work: Shots shots drawn from the RNG
// stream Seed (= StreamSeed(base seed, Index)).
type Shard struct {
	Index int
	Shots int
	Seed  int64

	// Lane is the index of the worker goroutine executing the shard,
	// stamped by the engine at dispatch. It is purely observational — the
	// flight profiler uses it to place trace events on per-worker tracks —
	// and never affects results (the decomposition above it carries no
	// Lane).
	Lane int
}

// Config describes one sharded run.
type Config struct {
	Shots int   // total shot budget
	Seed  int64 // base seed; shard i draws from StreamSeed(Seed, i)

	// Workers is the goroutine count; <= 0 means runtime.NumCPU(). The
	// worker count never affects results, only wall time. Workers == 1 runs
	// the shards inline without spawning goroutines.
	Workers int

	// ShardSize is the shots-per-shard granularity; <= 0 means
	// DefaultShardSize. It DOES affect results (it changes the stream
	// decomposition), so callers must keep it fixed across runs they want to
	// compare bit-for-bit.
	ShardSize int
}

func (c Config) shardSize() int {
	if c.ShardSize > 0 {
		return c.ShardSize
	}
	return DefaultShardSize
}

// shards materializes the deterministic decomposition of the budget.
func (c Config) shards() []Shard {
	if c.Shots <= 0 {
		return nil
	}
	size := c.shardSize()
	num := (c.Shots + size - 1) / size
	out := make([]Shard, num)
	for i := range out {
		n := size
		if i == num-1 {
			n = c.Shots - size*(num-1)
		}
		out[i] = Shard{Index: i, Shots: n, Seed: StreamSeed(c.Seed, uint64(i))}
	}
	return out
}

// ShardRunner processes one shard and returns its tally. Implementations
// must derive all randomness from the shard's RNG and touch only
// worker-owned or read-only state.
type ShardRunner = func(Shard) Tally
