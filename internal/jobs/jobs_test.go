package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetarch/internal/obs/ledger"
)

// testRunner is a controllable Runner: it records invocations, signals
// starts, and blocks until released (or until its job context dies).
type testRunner struct {
	mu      sync.Mutex
	started []string // job IDs in dispatch order
	runs    atomic.Int64
	block   chan struct{} // close to release all blocked runs
	starts  chan string   // receives each job ID as its run begins
	err     error         // returned after release when set
}

func newTestRunner() *testRunner {
	return &testRunner{block: make(chan struct{}), starts: make(chan string, 64)}
}

func (r *testRunner) run(ctx context.Context, job Job, dir string, progress func(int64)) (Result, error) {
	r.runs.Add(1)
	r.mu.Lock()
	r.started = append(r.started, job.ID)
	r.mu.Unlock()
	r.starts <- job.ID
	progress(100)
	select {
	case <-r.block:
		return Result{Metrics: &ledger.Headline{Shots: 100}}, r.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

func (r *testRunner) startedIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.started...)
}

func openTestManager(t *testing.T, dir string, r *testRunner, mut func(*Config)) (*Manager, context.CancelFunc) {
	t.Helper()
	cfg := Config{Dir: dir, Runner: r.run, PoolWeight: 8, TenantJobs: 4, MaxQueue: 64}
	if mut != nil {
		mut(&cfg)
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.Start(ctx)
	t.Cleanup(func() {
		cancel()
		m.Close()
	})
	return m, cancel
}

func waitState(t *testing.T, m *Manager, id, state string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := m.Get(id)
		if ok && j.State == state {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached state %q (now %q)", id, state, j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitStart(t *testing.T, r *testRunner) string {
	t.Helper()
	select {
	case id := <-r.starts:
		return id
	case <-time.After(10 * time.Second):
		t.Fatal("no job started in time")
		return ""
	}
}

func spec(exp string, seed int64) Spec {
	return Spec{Experiment: exp, Scale: ScaleQuick, Seed: seed, Workers: 1}
}

func TestManagerRunsJobToDone(t *testing.T) {
	r := newTestRunner()
	m, _ := openTestManager(t, t.TempDir(), r, nil)
	j, dup, err := m.Submit(spec("fig9", 1), "alice", 0)
	if err != nil || dup {
		t.Fatalf("Submit = dup %v, err %v", dup, err)
	}
	waitStart(t, r)
	close(r.block)
	got := waitState(t, m, j.ID, StateDone)
	if got.Metrics == nil || got.Metrics.Shots != 100 {
		t.Fatalf("done job metrics = %+v, want 100 shots", got.Metrics)
	}
	if got.ShotsDone != 100 {
		t.Fatalf("ShotsDone = %d, want 100", got.ShotsDone)
	}
	if got.StartedAt == "" || got.FinishedAt == "" {
		t.Fatalf("timestamps missing: %+v", got)
	}
}

// Identical specs must collapse onto one job — the runner fires once, the
// duplicate submission gets the original (running or finished) back.
func TestManagerDeduplicatesSpecs(t *testing.T) {
	r := newTestRunner()
	m, _ := openTestManager(t, t.TempDir(), r, nil)
	a, _, err := m.Submit(spec("fig9", 7), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, dup, err := m.Submit(spec("fig9", 7), "bob", 3) // tenant/priority differ: still the same work
	if err != nil {
		t.Fatal(err)
	}
	if !dup || !b.Deduplicated || b.ID != a.ID {
		t.Fatalf("duplicate submit: dup=%v id=%s (want %s)", dup, b.ID, a.ID)
	}
	waitStart(t, r)
	close(r.block)
	waitState(t, m, a.ID, StateDone)

	// Post-completion duplicates are cache hits against the done job.
	c, dup, err := m.Submit(spec("fig9", 7), "carol", 0)
	if err != nil || !dup || c.ID != a.ID || c.State != StateDone {
		t.Fatalf("post-done duplicate: dup=%v err=%v state=%s", dup, err, c.State)
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("runner ran %d times for one spec, want 1", got)
	}
	// A different spec is NOT a duplicate.
	d, dup, err := m.Submit(spec("fig9", 8), "carol", 0)
	if err != nil || dup || d.ID == a.ID {
		t.Fatalf("distinct spec treated as duplicate: dup=%v err=%v", dup, err)
	}
}

func TestFingerprintIgnoresWorkers(t *testing.T) {
	a := Spec{Experiment: "fig9", Seed: 1, Workers: 1}
	b := Spec{Experiment: "fig9", Seed: 1, Workers: 8}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints differ across worker counts; results are worker-independent, so they must match")
	}
	c := Spec{Experiment: "fig9", Seed: 1, JSON: true}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint ignores JSON, but JSON changes the output artifact")
	}
}

// The runner is handed the weight the pool granted as the job's worker
// count, never the spec's unclamped request (nor NumCPU for workers 0), so
// the daemon's total worker goroutines stay within PoolWeight however jobs
// overlap. The job's public snapshot keeps the requested count.
func TestManagerRunnerWorkersWithinPool(t *testing.T) {
	seen := make(chan int, 1)
	runner := func(ctx context.Context, job Job, dir string, progress func(int64)) (Result, error) {
		seen <- job.Spec.Workers
		return Result{}, nil
	}
	m, _ := openTestManager(t, t.TempDir(), newTestRunner(), func(c *Config) {
		c.Runner = runner
		c.PoolWeight = 1
	})
	for i, workers := range []int{4, 0} {
		s := spec("fig9", int64(i+1))
		s.Workers = workers
		j, _, err := m.Submit(s, "alice", 0)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-seen:
			if got != 1 {
				t.Fatalf("spec workers %d: runner got %d workers, pool holds 1", workers, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("job never ran")
		}
		if done := waitState(t, m, j.ID, StateDone); done.Spec.Workers != workers {
			t.Fatalf("job snapshot workers = %d, want the requested %d", done.Spec.Workers, workers)
		}
	}
}

// One tenant saturating its limit must not run more than TenantJobs at
// once — and must not head-block another tenant's work.
func TestManagerPerTenantLimit(t *testing.T) {
	r := newTestRunner()
	m, _ := openTestManager(t, t.TempDir(), r, func(c *Config) {
		c.TenantJobs = 2
		c.PoolWeight = 16
	})
	var ids []string
	for i := 0; i < 4; i++ {
		j, _, err := m.Submit(spec("fig9", int64(i+1)), "alice", 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	bob, _, err := m.Submit(spec("fig9", 99), "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly alice's first two plus bob's job start; alice's #3 and #4
	// stay queued behind her limit.
	startedSet := map[string]bool{}
	for i := 0; i < 3; i++ {
		startedSet[waitStart(t, r)] = true
	}
	if !startedSet[ids[0]] || !startedSet[ids[1]] || !startedSet[bob.ID] {
		t.Fatalf("started %v, want alice#1, alice#2, bob", startedSet)
	}
	// Nothing else may start while the limit is saturated.
	select {
	case id := <-r.starts:
		t.Fatalf("job %s started past the tenant limit", id)
	case <-time.After(50 * time.Millisecond):
	}
	running := 0
	for _, j := range m.List() {
		if j.State == StateRunning && j.Tenant == "alice" {
			running++
		}
	}
	if running != 2 {
		t.Fatalf("alice has %d running, want 2", running)
	}
	close(r.block)
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}
	waitState(t, m, bob.ID, StateDone)
	if got := r.runs.Load(); got != 5 {
		t.Fatalf("runner ran %d times, want 5", got)
	}
}

// Scheduling order: strictly by priority (higher first), FIFO within a
// band — verified with a single-slot pool so starts serialize.
func TestManagerPriorityFIFO(t *testing.T) {
	r := newTestRunner()
	m, _ := openTestManager(t, t.TempDir(), r, func(c *Config) {
		c.PoolWeight = 1
	})
	// Occupy the slot so the rest queue up and ordering is observable.
	gate, _, err := m.Submit(spec("fig9", 100), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitStart(t, r); got != gate.ID {
		t.Fatalf("gate start = %s, want %s", got, gate.ID)
	}
	lowA, _, _ := m.Submit(spec("fig9", 1), "alice", 0)
	high, _, _ := m.Submit(spec("fig9", 2), "alice", 5)
	lowB, _, _ := m.Submit(spec("fig9", 3), "alice", 0)
	close(r.block)
	waitState(t, m, lowB.ID, StateDone)
	want := []string{gate.ID, high.ID, lowA.ID, lowB.ID}
	got := r.startedIDs()
	if len(got) != len(want) {
		t.Fatalf("started %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v (priority desc, FIFO within)", got, want)
		}
	}
}

func TestManagerCancelQueuedAndRunning(t *testing.T) {
	r := newTestRunner()
	m, _ := openTestManager(t, t.TempDir(), r, func(c *Config) {
		c.PoolWeight = 1
	})
	running, _, err := m.Submit(spec("fig9", 1), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitStart(t, r)
	queued, _, err := m.Submit(spec("fig9", 2), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Queued: cancelled immediately, runner never sees it.
	if j, err := m.Cancel(queued.ID); err != nil || j.State != StateCancelled {
		t.Fatalf("cancel queued: state=%s err=%v", j.State, err)
	}
	// Running: context cancelled, terminal once the runner returns.
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, running.ID, StateCancelled)
	if got.Error == "" {
		t.Fatal("cancelled running job has no error detail")
	}
	// Cancelling a terminal job is rejected.
	if _, err := m.Cancel(queued.ID); err == nil {
		t.Fatal("cancel of a cancelled job succeeded")
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("runner ran %d times, want 1 (queued job cancelled before dispatch)", got)
	}
	// A cancelled spec is not reused: resubmission creates a fresh job.
	fresh, dup, err := m.Submit(spec("fig9", 2), "alice", 0)
	if err != nil || dup || fresh.ID == queued.ID {
		t.Fatalf("resubmit after cancel: dup=%v err=%v", dup, err)
	}
}

func TestManagerQueueFull(t *testing.T) {
	r := newTestRunner()
	m, _ := openTestManager(t, t.TempDir(), r, func(c *Config) {
		c.PoolWeight = 1
		c.MaxQueue = 2
	})
	if _, _, err := m.Submit(spec("fig9", 1), "alice", 0); err != nil {
		t.Fatal(err)
	}
	waitStart(t, r)
	if _, _, err := m.Submit(spec("fig9", 2), "alice", 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.Submit(spec("fig9", 3), "alice", 0)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	close(r.block)
}

func TestManagerRejectsBadSpecs(t *testing.T) {
	r := newTestRunner()
	m, _ := openTestManager(t, t.TempDir(), r, func(c *Config) {
		c.Validate = func(s Spec) error {
			if s.Experiment == "bogus" {
				return fmt.Errorf("unknown experiment %q", s.Experiment)
			}
			return nil
		}
	})
	cases := []Spec{
		{},                                  // no experiment
		{Experiment: "fig9", Scale: "huge"}, // bad scale
		{Experiment: "fig9", Shots: -1},     // negative shots
		{Experiment: "bogus", Seed: 1},      // daemon-level validation
		{Experiment: "fig9", Workers: -2},   // negative workers
	}
	for _, s := range cases {
		if _, _, err := m.Submit(s, "alice", 0); err == nil {
			t.Errorf("Submit(%+v) accepted, want error", s)
		}
	}
}

// The restart story, in-process: kill the daemon's context mid-job, close
// the manager, reopen over the same directory — the job must come back
// queued (the journal has no terminal record) and run to completion.
func TestManagerRestartRecoversRunningJob(t *testing.T) {
	dir := t.TempDir()
	r1 := newTestRunner()
	cfg := Config{Dir: dir, Runner: r1.run, PoolWeight: 8}
	m1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m1.Start(ctx)
	j, _, err := m1.Submit(spec("fig9", 42), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitStart(t, r1)
	cancel() // daemon shutdown, not user cancel: the runner sees ctx die
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := newTestRunner()
	close(r2.block) // second life completes immediately
	cfg.Runner = r2.run
	m2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer func() {
		cancel2()
		m2.Close()
	}()
	got, ok := m2.Get(j.ID)
	if !ok || got.State != StateQueued {
		t.Fatalf("recovered job state = %q (ok=%v), want queued", got.State, ok)
	}
	m2.Start(ctx2)
	done := waitState(t, m2, j.ID, StateDone)
	if done.Metrics == nil {
		t.Fatal("recovered job finished without metrics")
	}
	if r2.runs.Load() != 1 {
		t.Fatalf("recovered job ran %d times in second life, want 1", r2.runs.Load())
	}

	// Third life: the journal now holds the terminal record, so nothing
	// recovers and the result is served from memory of the replay.
	m3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	final, ok := m3.Get(j.ID)
	if !ok || final.State != StateDone {
		t.Fatalf("third-life state = %q, want done (terminal record replayed)", final.State)
	}
	if final.Metrics == nil || final.Metrics.Shots != 100 {
		t.Fatalf("third-life metrics = %+v, want the journaled headline", final.Metrics)
	}
	// And a duplicate submission is a cache hit against the replayed job.
	dup, isDup, err := m3.Submit(spec("fig9", 42), "bob", 0)
	if err != nil || !isDup || dup.ID != j.ID {
		t.Fatalf("post-restart duplicate: dup=%v err=%v", isDup, err)
	}
}

// A failed runner yields a failed job, and the spec becomes submittable
// again (failures are not dedup-cached).
func TestManagerFailedJobNotReused(t *testing.T) {
	r := newTestRunner()
	r.err = errors.New("kernel exploded")
	close(r.block)
	m, _ := openTestManager(t, t.TempDir(), r, nil)
	j, _, err := m.Submit(spec("fig9", 1), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateFailed)
	if got.Error != "kernel exploded" {
		t.Fatalf("failed job error = %q", got.Error)
	}
	fresh, dup, err := m.Submit(spec("fig9", 1), "alice", 0)
	if err != nil || dup || fresh.ID == j.ID {
		t.Fatalf("resubmit after failure: dup=%v err=%v", dup, err)
	}
}

func TestManagerSubscribeSeesTerminalState(t *testing.T) {
	r := newTestRunner()
	m, _ := openTestManager(t, t.TempDir(), r, nil)
	j, _, err := m.Submit(spec("fig9", 1), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancelSub, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()
	waitStart(t, r)
	close(r.block)
	deadline := time.After(10 * time.Second)
	for {
		select {
		case e := <-ch:
			if e.Type == "state" && e.State == StateDone {
				return
			}
		case <-deadline:
			t.Fatal("subscriber never saw the done event")
		}
	}
}
