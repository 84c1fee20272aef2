// Package jobs is the multi-tenant experiment job service behind `hetarch
// serve` (DESIGN.md §11): submit an experiment/DSE spec, get a job ID, and
// let a bounded worker pool execute it with durable, crash-tolerant state.
//
// The package composes four pieces:
//
//   - a weighted FIFO Semaphore bounding the pool by total Monte Carlo
//     worker goroutines, not job count (semaphore.go);
//   - an append-only JSONL job journal persisting every state transition
//     queued → running → done/failed/cancelled, torn-tail tolerant so a
//     killed daemon loses at most the uncommitted line (journal.go);
//   - the Manager: FIFO-within-priority scheduling with per-tenant
//     concurrency limits, sha256 spec-fingerprint deduplication (a
//     resubmitted spec attaches to the existing job instead of
//     recomputing), cooperative cancellation, per-job progress events,
//     and restart recovery — jobs that were queued or running when the
//     daemon died are re-enqueued and resume from their per-job
//     mc checkpoint (this file);
//   - an HTTP handler exposing it all under /jobs, with per-job SSE
//     progress streams (http.go; the full wire contract is in API.md).
//
// The Manager is experiment-agnostic: the actual run is a Runner callback
// the daemon supplies (cmd/hetarch wires the real experiment table,
// per-job checkpoint files via mc.WithCheckpoint, and run-ledger
// stamping), which keeps the scheduling and persistence machinery
// independently testable.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hetarch/internal/obs"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/runlog"
)

// Service telemetry, visible on /metrics: submission outcomes, terminal
// states, restart recoveries, and the live queue/pool occupancy.
var (
	submitted  = obs.C("jobs.submitted")
	dedupHits  = obs.C("jobs.dedup_hits")
	completed  = obs.C("jobs.completed")
	failed     = obs.C("jobs.failed")
	cancelled  = obs.C("jobs.cancelled")
	rejected   = obs.C("jobs.rejected")
	recovered  = obs.C("jobs.recovered")
	queuedNow  = obs.G("jobs.queued")
	runningNow = obs.G("jobs.running")
)

// Structured-log events.
var (
	evSubmit   = runlog.Event("jobs.submit")
	evDispatch = runlog.Event("jobs.dispatch")
	evDone     = runlog.Event("jobs.done")
	evFail     = runlog.Event("jobs.fail")
	evCancel   = runlog.Event("jobs.cancel")
	evRecover  = runlog.Event("jobs.recover")
)

// Job states. Lifecycle: queued → running → done | failed | cancelled.
// A queued job may go directly to cancelled. done/failed/cancelled are
// terminal; a daemon restart re-enqueues (in-memory) any job whose last
// journaled state is queued or running.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether state is a lifecycle endpoint.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Spec is an experiment request: the deterministic inputs of a run. Two
// specs with equal fingerprints produce byte-identical output artifacts,
// which is what makes deduplication sound.
type Spec struct {
	// Experiment is a runner name (fig9, table3, dse, ...; "all" allowed).
	Experiment string `json:"experiment"`
	// Scale is "quick" or "full" (default "full").
	Scale string `json:"scale,omitempty"`
	// Seed is the base RNG seed (default 1 is NOT applied: zero is a valid
	// seed and is kept as-is).
	Seed int64 `json:"seed"`
	// Shots overrides the scale's Monte Carlo shots per point (0 = scale
	// default).
	Shots int `json:"shots,omitempty"`
	// Workers is the Monte Carlo goroutine count — the job's weight
	// against the pool (0 = the pool's default). Results are
	// worker-count independent, so Workers is excluded from the
	// fingerprint.
	Workers int `json:"workers,omitempty"`
	// JSON selects machine-readable table output. It changes the output
	// artifact's bytes, so it participates in the fingerprint.
	JSON bool `json:"json,omitempty"`
}

// Scales accepted by Validate.
const (
	ScaleQuick = "quick"
	ScaleFull  = "full"
)

// Normalize fills the spec's defaults (Scale "full").
func (s Spec) Normalize() Spec {
	if s.Scale == "" {
		s.Scale = ScaleFull
	}
	return s
}

// Validate checks the spec's shape (experiment presence, scale vocabulary,
// non-negative counts). Experiment-name validity is the daemon's to check
// via Config.Validate — the manager does not know the runner table.
func (s Spec) Validate() error {
	switch {
	case s.Experiment == "":
		return errors.New("spec: experiment is required")
	case s.Scale != ScaleQuick && s.Scale != ScaleFull:
		return fmt.Errorf("spec: scale must be %q or %q, got %q", ScaleQuick, ScaleFull, s.Scale)
	case s.Shots < 0:
		return fmt.Errorf("spec: shots must be >= 0, got %d", s.Shots)
	case s.Workers < 0:
		return fmt.Errorf("spec: workers must be >= 0, got %d", s.Workers)
	}
	return nil
}

// fingerprintSpec is the canonical serialization the fingerprint hashes:
// exactly the fields that determine the output artifact's bytes, in fixed
// order. Workers is deliberately absent (results are worker-count
// independent); JSON is present (it selects the output encoding).
type fingerprintSpec struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	Seed       int64  `json:"seed"`
	Shots      int    `json:"shots"`
	JSON       bool   `json:"json"`
}

// Fingerprint returns the hex sha256 of the spec's canonical form — the
// deduplication key. The same content-addressing discipline as the dse
// characterization cache (internal/dse/cache): equal fingerprints ⇒ equal
// results, so a duplicate submission can be served from the original job.
func (s Spec) Fingerprint() string {
	s = s.Normalize()
	b, err := json.Marshal(fingerprintSpec{
		Experiment: s.Experiment, Scale: s.Scale, Seed: s.Seed, Shots: s.Shots, JSON: s.JSON,
	})
	if err != nil {
		panic("jobs: fingerprint marshal: " + err.Error()) // unreachable: fixed struct
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Job is a job's public snapshot — the JSON shape GET /jobs/{id} serves
// (see API.md).
type Job struct {
	ID          string            `json:"id"`
	Tenant      string            `json:"tenant"`
	Priority    int               `json:"priority,omitempty"`
	Spec        Spec              `json:"spec"`
	Fingerprint string            `json:"fingerprint"`
	State       string            `json:"state"`
	SubmittedAt string            `json:"submitted_at"`
	StartedAt   string            `json:"started_at,omitempty"`
	FinishedAt  string            `json:"finished_at,omitempty"`
	ShotsDone   int64             `json:"shots_done,omitempty"`
	Error       string            `json:"error,omitempty"`
	Metrics     *ledger.Headline  `json:"metrics,omitempty"`
	Artifacts   []ledger.Artifact `json:"artifacts,omitempty"`
	// Deduplicated is set on POST responses when the submission attached
	// to an existing job instead of creating one.
	Deduplicated bool `json:"deduplicated,omitempty"`
}

// Event is one frame of a job's SSE progress stream: a state transition
// or a throttled progress tick.
type Event struct {
	Type      string `json:"event"` // "state" or "progress"
	JobID     string `json:"job_id"`
	State     string `json:"state"`
	ShotsDone int64  `json:"shots_done,omitempty"`
	Error     string `json:"error,omitempty"`
	At        string `json:"at"` // RFC3339Nano
}

// Result is what a Runner returns for a completed job: the headline
// metrics and the artifact manifest (output file, checkpoint, ...) that
// land in the job record, the journal, and the run ledger.
type Result struct {
	Metrics   *ledger.Headline
	Artifacts []ledger.Artifact
}

// Runner executes one job. It runs on a pool goroutine with a per-job
// context: ctx is cancelled by DELETE /jobs/{id} and by daemon shutdown,
// and the runner must honor it cooperatively (the mc engine's
// shard-boundary cancellation). dir is the job's private artifact
// directory; progress reports sampled shots for the SSE stream. A runner
// that wants crash-tolerant resume opens a checkpoint in dir and installs
// it on ctx with mc.WithCheckpoint, whose scope numbers the job's runs
// independently of any other job running concurrently. job.Spec.Workers
// is the weight the pool granted the job (its resolved Workers clamped to
// the pool), so a runner that uses exactly that many worker goroutines
// keeps the daemon within Config.PoolWeight.
type Runner func(ctx context.Context, job Job, dir string, progress func(delta int64)) (Result, error)

// Config configures a Manager.
type Config struct {
	// Dir is the data directory: journal.jsonl plus one subdirectory per
	// job. Required.
	Dir string
	// Runner executes jobs. Required.
	Runner Runner
	// PoolWeight is the total worker-goroutine budget jobs draw from
	// (default runtime.NumCPU()). A job weighs its resolved Workers,
	// clamped to the pool size, and runs with that many (see Runner).
	PoolWeight int
	// TenantJobs is the per-tenant running-job limit (default 4).
	TenantJobs int
	// MaxQueue bounds jobs in non-terminal states; Submit past it returns
	// ErrQueueFull (default 1024).
	MaxQueue int
	// Validate, when set, vets specs beyond Spec.Validate — the daemon
	// rejects unknown experiment names here.
	Validate func(Spec) error
	// MintID mints job IDs (default runlog.MintID, seeded by the spec).
	MintID func(seed int64) string
}

// ErrQueueFull rejects submissions past Config.MaxQueue.
var ErrQueueFull = errors.New("jobs: queue is full")

// ErrClosed rejects operations on a closed manager.
var ErrClosed = errors.New("jobs: manager is closed")

// progressPubInterval throttles SSE progress frames per job.
const progressPubInterval = 200 * time.Millisecond

// job is the manager's mutable view of one job. Fields are guarded by the
// manager's mutex; shotsDone additionally by atomic access from the
// runner's progress callback via the manager methods.
type job struct {
	sub Submission
	seq int64 // FIFO tiebreak within a priority band

	state      string
	startedAt  string
	finishedAt string
	shotsDone  int64
	errMsg     string
	metrics    *ledger.Headline
	artifacts  []ledger.Artifact

	weight     int64
	cancel     context.CancelFunc
	cancelWant bool // DELETE requested (distinguishes cancel from daemon shutdown)

	subs        map[chan Event]struct{}
	lastProgPub time.Time
}

// Manager schedules, executes, journals, and serves jobs.
type Manager struct {
	cfg     Config
	journal *Journal
	sem     *Semaphore

	mu      sync.Mutex
	jobs    map[string]*job
	queue   []*job          // queued jobs, kept sorted by (priority desc, seq asc)
	byFP    map[string]*job // fingerprint → latest reusable job (queued/running/done)
	tenants map[string]int  // tenant → running jobs
	seq     int64
	closed  bool

	ctx     context.Context
	started bool
	kick    chan struct{}
	wg      sync.WaitGroup
}

// Open loads (or creates) the journal under cfg.Dir, replays it, and
// returns a manager with every unfinished job re-enqueued. Call Start to
// begin dispatching.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if cfg.Runner == nil {
		return nil, errors.New("jobs: Config.Runner is required")
	}
	if cfg.PoolWeight <= 0 {
		cfg.PoolWeight = runtime.NumCPU()
	}
	if cfg.TenantJobs <= 0 {
		cfg.TenantJobs = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.MintID == nil {
		cfg.MintID = runlog.MintID
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: data dir: %w", err)
	}
	journal, records, err := OpenJournal(filepath.Join(cfg.Dir, JournalName))
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		journal: journal,
		sem:     NewSemaphore(int64(cfg.PoolWeight)),
		jobs:    map[string]*job{},
		byFP:    map[string]*job{},
		tenants: map[string]int{},
		kick:    make(chan struct{}, 1),
	}
	m.replay(records)
	return m, nil
}

// replay folds journal records into the in-memory state: jobs in terminal
// states are kept for GET and dedup; unfinished jobs go back on the queue
// (their on-disk checkpoint makes the re-run a resume).
func (m *Manager) replay(records []Record) {
	for _, r := range records {
		switch r.Type {
		case "job.submitted":
			if r.Job == nil || r.Job.ID == "" {
				continue
			}
			m.seq++
			j := &job{sub: *r.Job, seq: m.seq, state: StateQueued, subs: map[chan Event]struct{}{}}
			m.jobs[j.sub.ID] = j
		case "job.state":
			j := m.jobs[r.ID]
			if j == nil {
				continue
			}
			j.state = r.State
			switch r.State {
			case StateRunning:
				j.startedAt = r.At
			case StateDone, StateFailed, StateCancelled:
				j.finishedAt = r.At
				j.errMsg = r.Error
				j.metrics = r.Metrics
				j.artifacts = r.Artifacts
				j.shotsDone = r.ShotsDone
			}
		}
	}
	// Rebuild the queue (unfinished jobs, original submit order) and the
	// dedup index. A job that was mid-flight re-enters as queued; its
	// journal keeps the old records, and the next transition appends.
	ids := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		ids = append(ids, j)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].seq < ids[b].seq })
	for _, j := range ids {
		if reusable(j.state) {
			m.byFP[j.sub.Fingerprint] = j
		}
		if !Terminal(j.state) {
			wasRunning := j.state == StateRunning
			j.state = StateQueued
			j.startedAt = ""
			j.shotsDone = 0
			m.enqueueLocked(j)
			recovered.Inc()
			runlog.L().Info(evRecover, "job_id", j.sub.ID, "experiment", j.sub.Spec.Experiment,
				"tenant", j.sub.Tenant, "was_running", wasRunning)
		}
	}
	queuedNow.Set(float64(len(m.queue)))
}

// reusable reports whether a job in this state can absorb a duplicate
// submission: an unfinished job will produce the result, a done job has
// it. Failed and cancelled jobs are not reused — resubmitting retries.
func reusable(state string) bool {
	return state == StateQueued || state == StateRunning || state == StateDone
}

// Start launches the dispatcher. ctx is the daemon's lifetime: cancelling
// it stops dispatching and cancels running jobs (which checkpoint and
// remain journaled as running, so the next Open resumes them).
func (m *Manager) Start(ctx context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	m.ctx = ctx
	m.wg.Add(1)
	go m.dispatchLoop(ctx)
	m.kickLocked()
}

// Close waits for in-flight jobs and the dispatcher to wind down (their
// contexts must already be cancelled via the Start ctx) and closes the
// journal.
func (m *Manager) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
	return m.journal.Close()
}

// JournalPath returns the backing journal file.
func (m *Manager) JournalPath() string { return m.journal.Path() }

// JobDir returns the artifact directory of the given job ID.
func (m *Manager) JobDir(id string) string { return filepath.Join(m.cfg.Dir, id) }

// now is the journal's timestamp format.
func now() string { return time.Now().UTC().Format(time.RFC3339Nano) }

// Submit validates, deduplicates, journals, and enqueues a spec. The
// returned Job is the accepted job's snapshot; dedup reports whether it
// is a pre-existing job (Deduplicated is also set on the snapshot).
func (m *Manager) Submit(spec Spec, tenant string, priority int) (Job, bool, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		rejected.Inc()
		return Job{}, false, err
	}
	if m.cfg.Validate != nil {
		if err := m.cfg.Validate(spec); err != nil {
			rejected.Inc()
			return Job{}, false, err
		}
	}
	if tenant == "" {
		tenant = "default"
	}
	fp := spec.Fingerprint()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		rejected.Inc()
		return Job{}, false, ErrClosed
	}
	if j := m.byFP[fp]; j != nil {
		dedupHits.Inc()
		snap := m.snapshotLocked(j)
		snap.Deduplicated = true
		return snap, true, nil
	}
	if m.unfinishedLocked() >= m.cfg.MaxQueue {
		rejected.Inc()
		return Job{}, false, ErrQueueFull
	}

	m.seq++
	j := &job{
		sub: Submission{
			ID:          m.cfg.MintID(spec.Seed),
			Tenant:      tenant,
			Priority:    priority,
			Spec:        spec,
			Fingerprint: fp,
			SubmittedAt: now(),
		},
		seq:   m.seq,
		state: StateQueued,
		subs:  map[chan Event]struct{}{},
	}
	if err := m.journal.Append(Record{Type: "job.submitted", Job: &j.sub}); err != nil {
		rejected.Inc()
		return Job{}, false, err
	}
	m.jobs[j.sub.ID] = j
	m.byFP[fp] = j
	m.enqueueLocked(j)
	submitted.Inc()
	queuedNow.Set(float64(len(m.queue)))
	runlog.L().Info(evSubmit, "job_id", j.sub.ID, "experiment", spec.Experiment,
		"tenant", tenant, "priority", priority, "fingerprint", fp[:12])
	m.publishLocked(j, Event{Type: "state", JobID: j.sub.ID, State: StateQueued, At: now()})
	m.kickLocked()
	return m.snapshotLocked(j), false, nil
}

// unfinishedLocked counts jobs in non-terminal states.
func (m *Manager) unfinishedLocked() int {
	n := 0
	for _, j := range m.jobs {
		if !Terminal(j.state) {
			n++
		}
	}
	return n
}

// enqueueLocked inserts j into the queue, keeping it sorted by priority
// (higher first) then submission order.
func (m *Manager) enqueueLocked(j *job) {
	i := sort.Search(len(m.queue), func(i int) bool {
		q := m.queue[i]
		if q.sub.Priority != j.sub.Priority {
			return q.sub.Priority < j.sub.Priority
		}
		return q.seq > j.seq
	})
	m.queue = append(m.queue, nil)
	copy(m.queue[i+1:], m.queue[i:])
	m.queue[i] = j
}

// Get returns the snapshot of the job with the given ID.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return m.snapshotLocked(j), true
}

// List returns every job's snapshot, newest submission first.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	sort.Slice(js, func(a, b int) bool { return js[a].seq > js[b].seq })
	for _, j := range js {
		out = append(out, m.snapshotLocked(j))
	}
	return out
}

// ErrTerminal rejects cancelling a job that already finished.
var ErrTerminal = errors.New("jobs: job already in a terminal state")

// Cancel cancels the job: a queued job transitions to cancelled
// immediately; a running job's context is cancelled and the transition is
// journaled when the runner returns. Idempotent for an already-requested
// cancel; ErrTerminal for finished jobs.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("jobs: no job %q", id)
	}
	switch j.state {
	case StateQueued:
		for i, q := range m.queue {
			if q == j {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		queuedNow.Set(float64(len(m.queue)))
		m.transitionLocked(j, StateCancelled, "cancelled while queued", nil)
		return m.snapshotLocked(j), nil
	case StateRunning:
		j.cancelWant = true
		if j.cancel != nil {
			j.cancel()
		}
		return m.snapshotLocked(j), nil
	default:
		if j.cancelWant {
			return m.snapshotLocked(j), nil
		}
		return m.snapshotLocked(j), ErrTerminal
	}
}

// Subscribe attaches an event channel to the job. Events are dropped, not
// blocked on, when the subscriber lags; cancelFn detaches.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("jobs: no job %q", id)
	}
	ch := make(chan Event, 32)
	j.subs[ch] = struct{}{}
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
	return ch, cancel, nil
}

// publishLocked fans an event out to the job's subscribers, dropping
// frames for slow consumers (SSE is a progress feed, not a journal).
func (m *Manager) publishLocked(j *job, e Event) {
	for ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// snapshotLocked renders the job's public view.
func (m *Manager) snapshotLocked(j *job) Job {
	return Job{
		ID:          j.sub.ID,
		Tenant:      j.sub.Tenant,
		Priority:    j.sub.Priority,
		Spec:        j.sub.Spec,
		Fingerprint: j.sub.Fingerprint,
		State:       j.state,
		SubmittedAt: j.sub.SubmittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		ShotsDone:   j.shotsDone,
		Error:       j.errMsg,
		Metrics:     j.metrics,
		Artifacts:   append([]ledger.Artifact(nil), j.artifacts...),
	}
}

// transitionLocked journals and applies a state change, publishing the
// event. Terminal transitions carry the outcome. A journal append failure
// on a terminal transition is surfaced in the job's error but the
// in-memory transition still happens — the daemon must not wedge a
// finished job on a full disk; the journal heals on the next restart.
func (m *Manager) transitionLocked(j *job, state, errMsg string, res *Result) {
	rec := Record{Type: "job.state", ID: j.sub.ID, State: state, At: now()}
	switch state {
	case StateRunning:
		j.state = StateRunning
		j.startedAt = rec.At
	case StateDone, StateFailed, StateCancelled:
		j.state = state
		j.finishedAt = rec.At
		j.errMsg = errMsg
		rec.Error = errMsg
		rec.ShotsDone = j.shotsDone
		if res != nil {
			j.metrics = res.Metrics
			j.artifacts = res.Artifacts
			rec.Metrics = res.Metrics
			rec.Artifacts = res.Artifacts
		}
		if !reusable(state) && m.byFP[j.sub.Fingerprint] == j {
			delete(m.byFP, j.sub.Fingerprint)
		}
	}
	if err := m.journal.Append(rec); err != nil {
		runlog.L().Warn(evFail, "job_id", j.sub.ID, "journal_error", err.Error())
		if j.errMsg == "" {
			j.errMsg = "journal: " + err.Error()
		}
	}
	switch state {
	case StateDone:
		completed.Inc()
		runlog.L().Info(evDone, "job_id", j.sub.ID, "experiment", j.sub.Spec.Experiment, "shots", j.shotsDone)
	case StateFailed:
		failed.Inc()
		runlog.L().Warn(evFail, "job_id", j.sub.ID, "error", errMsg)
	case StateCancelled:
		cancelled.Inc()
		runlog.L().Info(evCancel, "job_id", j.sub.ID)
	}
	m.publishLocked(j, Event{Type: "state", JobID: j.sub.ID, State: j.state, ShotsDone: j.shotsDone, Error: j.errMsg, At: rec.At})
}

// kickLocked nudges the dispatcher (non-blocking; coalesces).
func (m *Manager) kickLocked() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// dispatchLoop is the scheduler: on every kick it scans the queue in
// (priority, FIFO) order and starts every job it can place. Discipline:
// a job whose tenant is at its running limit is skipped (one tenant must
// not head-block the others); a job that fits tenant-wise but not
// weight-wise blocks the scan (strict FIFO — light jobs arriving later
// must not starve a heavy job at the head).
func (m *Manager) dispatchLoop(ctx context.Context) {
	defer m.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-m.kick:
		}
		m.mu.Lock()
		i := 0
		for i < len(m.queue) {
			j := m.queue[i]
			if m.tenants[j.sub.Tenant] >= m.cfg.TenantJobs {
				i++ // tenant-limited: skip, try the next job
				continue
			}
			weight := int64(j.sub.Spec.Workers)
			if weight <= 0 {
				weight = int64(runtime.NumCPU())
			}
			if weight > m.sem.Size() {
				weight = m.sem.Size()
			}
			if !m.sem.TryAcquire(weight) {
				break // pool-limited: head-of-line blocks, preserving FIFO
			}
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			j.weight = weight
			m.tenants[j.sub.Tenant]++
			jctx, cancel := context.WithCancel(ctx)
			j.cancel = cancel
			m.transitionLocked(j, StateRunning, "", nil)
			queuedNow.Set(float64(len(m.queue)))
			runningNow.Set(float64(m.runningLocked()))
			runlog.L().Info(evDispatch, "job_id", j.sub.ID, "experiment", j.sub.Spec.Experiment,
				"tenant", j.sub.Tenant, "weight", weight)
			m.wg.Add(1)
			go m.runJob(jctx, j)
		}
		m.mu.Unlock()
	}
}

func (m *Manager) runningLocked() int {
	n := 0
	for _, c := range m.tenants {
		n += c
	}
	return n
}

// runJob executes one dispatched job on its own goroutine and folds the
// outcome back into the state machine.
func (m *Manager) runJob(ctx context.Context, j *job) {
	defer m.wg.Done()
	m.mu.Lock()
	snap := m.snapshotLocked(j)
	snap.Spec.Workers = int(j.weight)
	m.mu.Unlock()

	dir := m.JobDir(j.sub.ID)
	var res Result
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		res, err = m.cfg.Runner(ctx, snap, dir, func(delta int64) { m.progress(j, delta) })
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.sem.Release(j.weight)
	m.tenants[j.sub.Tenant]--
	if m.tenants[j.sub.Tenant] <= 0 {
		delete(m.tenants, j.sub.Tenant)
	}
	j.cancel = nil
	switch {
	case err == nil:
		m.transitionLocked(j, StateDone, "", &res)
	case j.cancelWant && isInterrupt(err):
		m.transitionLocked(j, StateCancelled, err.Error(), &res)
	case m.ctx != nil && m.ctx.Err() != nil && isInterrupt(err):
		// Daemon shutdown, not failure: leave the journal's last state as
		// running so the next Open re-enqueues the job, which resumes from
		// its checkpoint. In-memory state goes back to queued for any
		// final snapshots served during the drain window.
		j.state = StateQueued
		j.startedAt = ""
		m.publishLocked(j, Event{Type: "state", JobID: j.sub.ID, State: StateQueued, ShotsDone: j.shotsDone, At: now()})
	default:
		m.transitionLocked(j, StateFailed, err.Error(), &res)
	}
	runningNow.Set(float64(m.runningLocked()))
	m.kickLocked()
}

// isInterrupt reports whether err is cooperative-cancellation fallout
// (context cancellation or deadline, possibly wrapped in a typed partial
// error) rather than a genuine failure.
func isInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// progress accumulates the runner's sampled shot deltas and publishes a
// throttled progress event.
func (m *Manager) progress(j *job, delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.shotsDone += delta
	if t := time.Now(); t.Sub(j.lastProgPub) >= progressPubInterval {
		j.lastProgPub = t
		m.publishLocked(j, Event{Type: "progress", JobID: j.sub.ID, State: j.state, ShotsDone: j.shotsDone, At: now()})
	}
}
