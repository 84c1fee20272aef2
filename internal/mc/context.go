// Resilient execution layer of the mc engine: context-aware dispatch,
// per-shard panic isolation with bounded same-stream retries, and the two
// context-scoped run bindings: the checkpoint store and the fault injector.
//
// The layer exploits the engine's deterministic shard decomposition: a
// cancelled or faulted run still returns the pooled tally of every shard
// that DID complete, identified by index in a typed *PartialError, and a
// completed shard's tally is exactly what an uninterrupted run would have
// produced for that index. That is what makes checkpoint/resume exact:
// re-running the same (shots, seed, shard size) while skipping the
// completed set yields bit-identical pooled counts.
package mc

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hetarch/internal/obs"
	"hetarch/internal/obs/runlog"
	"hetarch/internal/obs/trace"
)

// Structured-log events (no-ops until the CLI installs a run logger).
var (
	evShardFault = runlog.Event("mc.shard_fault")
	evShardRetry = runlog.Event("mc.shard_retry")
)

// Engine telemetry: faults count recovered worker panics (one per failed
// attempt), retries the re-executions they trigger, hits the shards a
// checkpoint satisfied without execution. The histograms break a run's
// wall time down per shard — shard_wall_ns is time spent executing,
// shard_queue_wait_ns the time a shard sat dispatched-but-unclaimed —
// and worker_utilization is the fraction of the pool's wall-clock budget
// (run wall x workers) spent executing shards: the gap between it and
// 1.0 is queueing, merge, and scheduler overhead.
var (
	shardFaults    = obs.C("mc.shard_faults")
	shardRetries   = obs.C("mc.shard_retries")
	checkpointHits = obs.C("mc.checkpoint_hits")
	shardWall      = obs.H("mc.shard_wall_ns")
	shardWait      = obs.H("mc.shard_queue_wait_ns")
	workerUtil     = obs.G("mc.worker_utilization")
)

// DefaultShardRetries is the number of same-stream re-executions a
// panicking shard gets before the run fails cleanly. One retry absorbs
// transient faults (the chaos injector's model) while keeping a
// deterministic crash from looping: the retry reruns the identical shard
// seed, so a panic that is a pure function of the shard's work fires again
// and surfaces as a *ShardFault. Retries never affect results.
const DefaultShardRetries = 1

// ShardFault reports a shard whose runner panicked on every attempt. The
// engine recovers the panic on the worker goroutine, captures the stack,
// and fails the run cleanly instead of crashing the process — completed
// shards stay usable (and checkpointed).
type ShardFault struct {
	Shard    int    // shard index within the run
	Seed     int64  // the shard's stream seed (rerunning it reproduces the fault)
	Attempts int    // executions performed, including retries
	Value    any    // the recovered panic value
	Stack    []byte // stack captured at the final panic
}

func (f *ShardFault) Error() string {
	return fmt.Sprintf("mc: shard %d (stream seed %d) panicked after %d attempt(s): %v",
		f.Shard, f.Seed, f.Attempts, f.Value)
}

// PartialError reports a run that stopped before completing every shard —
// cancelled, past its deadline, faulted, or unable to record a checkpoint.
// The run's partial result covers exactly the Completed shard indices.
// Unwrap exposes the cause, so errors.Is(err, context.Canceled) and
// errors.As(err, &fault) both work.
type PartialError struct {
	Cause     error // context error, *ShardFault, or checkpoint I/O error
	Completed []int // sorted indices of shards that finished (or were resumed)
	Shards    int   // total shards in the decomposition
	ShotsDone int64 // shots covered by the completed shards
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("mc: run interrupted after %d/%d shards (%d shots): %v",
		len(e.Completed), e.Shards, e.ShotsDone, e.Cause)
}

func (e *PartialError) Unwrap() error { return e.Cause }

// FaultInjector is the chaos-testing hook: when bound to a run's context
// via WithFaultInjector, BeforeShard runs on the worker goroutine before
// every shard attempt (it may sleep or panic — a panic is recovered and
// retried like any shard fault) and ShardDone after every successful
// completion (where it may cancel the run's context to simulate a mid-run
// kill).
type FaultInjector interface {
	BeforeShard(sh Shard, attempt int)
	ShardDone(sh Shard)
}

// Checkpoint persists per-shard tallies so an interrupted run can resume.
// Lookup returns the recorded tally of a completed shard (a hit skips
// execution entirely); Record is called once per newly completed shard,
// from the worker goroutine, and must be durable when it returns.
type Checkpoint interface {
	Lookup(key RunKey, sh Shard) (Tally, bool)
	Record(key RunKey, sh Shard, t Tally) error
}

// RunKey identifies one RunContext invocation within a checkpoint scope.
// Runs are numbered by the scope's sequence counter (see WithCheckpoint):
// experiment code executes its sub-runs in a deterministic order, so the
// same (Run, Shots, Seed, ShardSize) tuple names the same sub-run across
// an interrupt/resume pair.
type RunKey struct {
	Run       int   `json:"run"`
	Shots     int   `json:"shots"`
	Seed      int64 `json:"seed"`
	ShardSize int   `json:"shard_size"`
}

// ckptScope is a context-scoped checkpoint binding: the store plus its own
// run-sequence counter, so two experiments running concurrently in one
// process each number their sub-runs 0, 1, 2, ... exactly as a solo run
// would — the property that makes each scope's checkpoint resumable
// regardless of what else the process was executing at the time.
type ckptScope struct {
	cp  Checkpoint
	seq atomic.Int64
}

type ckptScopeKey struct{}

// WithCheckpoint returns a context that binds every RunContext call under
// it to the checkpoint store cp and to a fresh run-sequence counter. Each
// scope numbers its runs independently from zero, in the deterministic
// order the experiment code issues them, so any number of scopes can run
// concurrently and a resuming process numbers its runs exactly like the
// interrupted one. Install the scope before the experiment starts and
// pass the returned context to every run of the campaign. A nil store
// yields a scope that checkpoints nothing, shadowing any outer scope.
func WithCheckpoint(ctx context.Context, cp Checkpoint) context.Context {
	return context.WithValue(ctx, ckptScopeKey{}, &ckptScope{cp: cp})
}

// checkpointScope returns the scope carried by ctx, or nil.
func checkpointScope(ctx context.Context) *ckptScope {
	s, _ := ctx.Value(ckptScopeKey{}).(*ckptScope)
	return s
}

type injectorKey struct{}

// WithFaultInjector returns a context that binds every run under it to the
// chaos hook fi (nil removes an outer binding). The binding is independent
// of WithCheckpoint, so concurrent runs each see only their own injector.
// The engine reads it once per run, so shards pay no context lookup.
func WithFaultInjector(ctx context.Context, fi FaultInjector) context.Context {
	return context.WithValue(ctx, injectorKey{}, fi)
}

// runShard executes one shard attempt under recover, converting a worker
// panic (the runner's or an injected one) into a *ShardFault with the
// stack captured at the panic site.
func runShard[T any](run func(Shard) T, sh Shard, attempt int, fi FaultInjector) (val T, fault *ShardFault) {
	defer func() {
		if r := recover(); r != nil {
			shardFaults.Inc()
			runlog.L().Warn(evShardFault, "shard", sh.Index, "seed", sh.Seed, "attempt", attempt, "panic", fmt.Sprint(r))
			fault = &ShardFault{Shard: sh.Index, Seed: sh.Seed, Value: r, Stack: debug.Stack()}
		}
	}()
	if fi != nil {
		fi.BeforeShard(sh, attempt)
	}
	val = run(sh)
	return
}

// MapShardsContext partitions cfg.Shots into shards, processes them on
// min(workers, shards) goroutines, and returns the per-shard results in
// shard order. newWorker runs once per goroutine to build worker-owned
// state (sampler, decoder, scratch); the returned function is then called
// once per shard, always from that same goroutine. Because results are
// placed by shard index and the decomposition is independent of
// scheduling, the returned slice is identical for any worker count —
// including reductions that are not commutative.
//
// Dispatch is cooperative and panic-isolated. It stops dispatching shards
// once ctx is cancelled or a shard exhausts its retries; in-flight shards finish (shards are small, so the
// latency is bounded by one shard of work per worker). On an incomplete
// run it returns the results slice — valid at exactly the completed
// indices — together with a *PartialError describing what finished and
// why the rest did not.
//
// A panicking shard is retried up to DefaultShardRetries times on a
// fresh worker (the panic may have left the old worker's state
// inconsistent), re-running the identical stream seed so a successful
// retry is bit-identical to an undisturbed execution.
func MapShardsContext[T any](ctx context.Context, cfg Config, newWorker func() func(Shard) T) ([]T, error) {
	shards := cfg.shards()
	if len(shards) == 0 {
		return nil, nil
	}
	out := make([]T, len(shards))
	done := make([]bool, len(shards))
	fi, _ := ctx.Value(injectorKey{}).(FaultInjector)

	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	var firstFault atomic.Pointer[ShardFault]

	// Flight telemetry: every shard feeds the wall/queue-wait histograms
	// and the busy-time accumulator behind mc.worker_utilization; sampled
	// shards additionally emit a trace event on their worker's lane. None
	// of it touches the shard's RNG stream, so results stay bit-identical
	// with tracing on or off.
	dispatchStart := time.Now()
	var busyNs atomic.Int64

	// process runs one shard to completion (with retries) on worker lane
	// `lane`, returning false when the shard faulted out and the run must
	// wind down. It owns the worker pointer so a retry can swap in a fresh
	// worker for itself and for the shards that goroutine processes
	// afterwards.
	process := func(lane int, run *func(Shard) T, sh Shard) bool {
		pickup := time.Now()
		wait := pickup.Sub(dispatchStart).Nanoseconds()
		shardWait.Observe(wait)
		sh.Lane = lane
		traced := trace.Sampled(sh.Index)
		var ts0 int64
		if traced {
			ts0 = trace.Now()
		}
		var last *ShardFault
		for attempt := 1; attempt <= 1+DefaultShardRetries; attempt++ {
			if attempt > 1 {
				shardRetries.Inc()
				runlog.L().Info(evShardRetry, "shard", sh.Index, "seed", sh.Seed, "attempt", attempt)
				*run = newWorker()
			}
			v, fault := runShard(*run, sh, attempt, fi)
			if fault == nil {
				out[sh.Index] = v
				done[sh.Index] = true
				wall := time.Since(pickup).Nanoseconds()
				shardWall.Observe(wall)
				busyNs.Add(wall)
				if traced {
					trace.Emit(trace.Event{
						Name: fmt.Sprintf("shard %d", sh.Index), Cat: "mc.shard",
						Proc: "mc", Lane: lane, Phase: trace.PhaseComplete,
						TS: ts0, Dur: trace.Now() - ts0, Index: int64(sh.Index),
						Attrs: map[string]int64{"queue_wait_ns": wait, "shots": int64(sh.Shots), "attempts": int64(attempt)},
					})
				}
				if fi != nil {
					fi.ShardDone(sh)
				}
				return true
			}
			fault.Attempts = attempt
			last = fault
		}
		firstFault.CompareAndSwap(nil, last)
		stop()
		return false
	}

	workers := ResolveWorkers(cfg.Workers)
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		run := newWorker()
		for i := range shards {
			if runCtx.Err() != nil {
				break
			}
			if !process(0, &run, shards[i]) {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				run := newWorker()
				for runCtx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(shards) {
						return
					}
					if !process(lane, &run, shards[i]) {
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	if wallNs := time.Since(dispatchStart).Nanoseconds(); wallNs > 0 {
		workerUtil.Set(float64(busyNs.Load()) / (float64(wallNs) * float64(workers)))
	}

	completed := make([]int, 0, len(shards))
	var shotsDone int64
	for i, ok := range done {
		if ok {
			completed = append(completed, i)
			shotsDone += int64(shards[i].Shots)
		}
	}
	if len(completed) == len(shards) {
		return out, nil
	}
	var cause error
	if f := firstFault.Load(); f != nil {
		cause = f
	} else if err := ctx.Err(); err != nil {
		cause = err
	} else {
		cause = context.Canceled // unreachable: incomplete runs have a fault or a dead context
	}
	return out, &PartialError{Cause: cause, Completed: completed, Shards: len(shards), ShotsDone: shotsDone}
}

// mergeTraced wraps the shard-order tally fold in a trace span (lane 0 of
// the mc track) when the flight profiler is armed, so the merge phase is
// visible next to the shard executions it follows.
func mergeTraced(shards int, fold func()) {
	if !trace.Enabled() {
		fold()
		return
	}
	ts0 := trace.Now()
	fold()
	trace.Emit(trace.Event{
		Name: "merge", Cat: "mc.merge", Proc: "mc", Lane: 0, Phase: trace.PhaseComplete,
		TS: ts0, Dur: trace.Now() - ts0, Index: -1,
		Attrs: map[string]int64{"shards": int64(shards)},
	})
}

// RunContext shards the budget, executes it on the worker pool with
// cooperative cancellation and panic isolation, and pools the shard
// tallies in shard order. Same (Shots, Seed, ShardSize) ⇒ bit-identical
// pooled counts at any worker count. It always returns the pooled tally of
// the shards that completed; when that is not all of them, the error is a
// *PartialError whose Completed set the tally covers.
//
// When ctx carries a checkpoint scope (WithCheckpoint), each shard is
// looked up before execution — a hit reuses the recorded tally without
// re-sampling (obs counters do not re-tick for resumed shards) — and
// recorded durably after it completes, so killing the process at any shard
// boundary loses at most the in-flight shards.
func RunContext(ctx context.Context, cfg Config, newWorker func() ShardRunner) (Tally, error) {
	runCtx := ctx
	build := newWorker
	var recordErr atomic.Pointer[error]
	if scope := checkpointScope(ctx); scope != nil && scope.cp != nil {
		cp := scope.cp
		key := RunKey{Run: int(scope.seq.Add(1)) - 1, Shots: cfg.Shots, Seed: cfg.Seed, ShardSize: cfg.shardSize()}
		var cancel context.CancelFunc
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		build = func() ShardRunner {
			run := newWorker()
			return func(sh Shard) Tally {
				if t, ok := cp.Lookup(key, sh); ok {
					checkpointHits.Inc()
					if trace.Sampled(sh.Index) {
						trace.Emit(trace.Event{
							Name: "checkpoint hit", Cat: "mc.checkpoint", Proc: "mc",
							Lane: sh.Lane, Phase: trace.PhaseInstant, TS: trace.Now(),
							Index: int64(sh.Index),
						})
					}
					return t
				}
				t := run(sh)
				if err := cp.Record(key, sh, t); err != nil {
					// A fresh variable: taking err's address would move it
					// to the heap on every shard, not just this branch.
					werr := fmt.Errorf("mc: checkpoint record: %w", err)
					recordErr.CompareAndSwap(nil, &werr)
					cancel() // stop dispatching: the store is not durable anymore
				}
				return t
			}
		}
	}

	out, err := MapShardsContext(runCtx, cfg, build)
	var total Tally
	if err == nil {
		mergeTraced(len(out), func() {
			for _, t := range out {
				total.Add(t)
			}
		})
		if rp := recordErr.Load(); rp != nil {
			// Every shard ran, but the last records may not be durable.
			return total, *rp
		}
		return total, nil
	}
	pe := err.(*PartialError)
	mergeTraced(len(pe.Completed), func() {
		for _, i := range pe.Completed {
			total.Add(out[i])
		}
	})
	if rp := recordErr.Load(); rp != nil {
		// The internal cancel fired because recording failed; surface the
		// I/O error as the cause rather than the synthetic context error.
		if _, isFault := pe.Cause.(*ShardFault); !isFault {
			pe.Cause = *rp
		}
	}
	return total, pe
}
