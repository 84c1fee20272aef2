// Package chaos is the fault-injection harness for the mc engine's
// resilience layer. An Injector implements mc.FaultInjector and perturbs a
// run deterministically — panic on chosen shards, per-shard latency,
// cancel the run's context after K completions — so tests can assert the
// engine's recovery invariants (retry determinism, exact partial tallies,
// checkpoint/resume round trips) without real signals or real crashes.
//
// Everything the injector randomizes derives from its own seed via the
// engine's splitmix64 stream splitter, never from the experiment's RNG
// streams or the wall clock, so a chaos test is as reproducible as the
// run it disturbs.
//
// The injector fires before the checkpoint lookup inside the engine (the
// hook wraps the whole shard attempt), so on a resumed run it can panic on
// shards that a checkpoint would otherwise skip; resume tests normally
// resume under a context without the injector, modelling a transient fault
// that does not recur.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hetarch/internal/mc"
)

// Injector is a deterministic mc.FaultInjector. The zero value injects
// nothing; configure it with the With/PanicOn methods before binding it to
// a run's context via mc.WithFaultInjector. All methods are safe for
// concurrent use by the engine's workers.
type Injector struct {
	mu          sync.Mutex
	seed        int64
	panics      map[int]int // shard index -> remaining injected panics
	latency     time.Duration
	cancelAfter int
	cancel      context.CancelFunc
	cancelled   chan struct{} // closed once cancel has returned
	completed   int
	injected    int
}

// New returns an injector whose random choices (PickShards, Cutpoint)
// derive from seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, panics: map[int]int{}}
}

// PanicOnShard arranges for the first `times` attempts of shard `index` to
// panic. times = 1 models a transient fault the engine's retry absorbs;
// times > the configured retry budget forces a clean run failure.
func (in *Injector) PanicOnShard(index, times int) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.panics[index] = times
	return in
}

// PickShards deterministically selects count distinct shard indices out of
// [0, outOf) from the injector's seed — the "panic on random shards"
// chaos mode. It returns the chosen indices so the test can reason about
// them.
func (in *Injector) PickShards(count, outOf int) []int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if count > outOf {
		count = outOf
	}
	perm := rand.New(rand.NewSource(in.seed)).Perm(outOf)
	return perm[:count]
}

// Cutpoint deterministically picks a shard boundary in [1, outOf) from the
// injector's seed — the "kill at a random shard boundary" chaos mode.
func (in *Injector) Cutpoint(outOf int) int {
	if outOf <= 1 {
		return 1
	}
	return 1 + rand.New(rand.NewSource(in.seed^0x5ca1ab1e)).Intn(outOf-1)
}

// WithLatency adds a fixed sleep before every shard attempt, stretching
// the run so external interruptions (signals, deadlines) reliably land
// mid-run.
func (in *Injector) WithLatency(d time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.latency = d
	return in
}

// CancelAfter calls cancel exactly once, when the k-th shard completes,
// simulating a kill at a shard boundary. From the k-th completion until
// cancel returns, every shard attempt waits in BeforeShard, so a slow
// cancel cannot let the other workers finish the run. With a single
// worker the completed set is exactly the first k shards. With w workers
// and a cancel that cancels the run's context before returning, at most
// k + 2(w-1) shards complete: each other worker finishes the shard it was
// running and at most the one it was waiting to start. Firing once
// matters when cancel raises a real signal: a second SIGINT landing after
// the interrupted run has restored default signal handling would kill the
// process.
func (in *Injector) CancelAfter(k int, cancel context.CancelFunc) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cancelAfter = k
	in.cancel = cancel
	in.cancelled = make(chan struct{})
	return in
}

// InjectedFaults returns how many panics the injector has raised.
func (in *Injector) InjectedFaults() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// BeforeShard implements mc.FaultInjector: once the cancellation has
// fired it waits for cancel to return, then it sleeps the configured
// latency and panics if the shard still has injected faults pending.
func (in *Injector) BeforeShard(sh mc.Shard, attempt int) {
	in.mu.Lock()
	doPanic := false
	if n := in.panics[sh.Index]; n > 0 {
		in.panics[sh.Index] = n - 1
		in.injected++
		doPanic = true
	}
	d := in.latency
	var cancelled chan struct{}
	if in.firing() {
		cancelled = in.cancelled
	}
	in.mu.Unlock()
	if cancelled != nil {
		<-cancelled
	}
	if d > 0 {
		time.Sleep(d)
	}
	if doPanic {
		panic(fmt.Sprintf("chaos: injected fault on shard %d (attempt %d)", sh.Index, attempt))
	}
}

// ShardDone implements mc.FaultInjector: it counts the completion and
// fires the configured cancellation when the threshold is reached,
// releasing the attempts BeforeShard holds once cancel returns.
func (in *Injector) ShardDone(mc.Shard) {
	in.mu.Lock()
	in.completed++
	fire := in.firing() && in.completed == in.cancelAfter
	cancel, cancelled := in.cancel, in.cancelled
	in.mu.Unlock()
	if fire {
		cancel()
		close(cancelled)
	}
}

// firing reports whether the configured cancellation has been reached.
// The caller holds in.mu.
func (in *Injector) firing() bool {
	return in.cancel != nil && in.cancelAfter > 0 && in.completed >= in.cancelAfter
}
