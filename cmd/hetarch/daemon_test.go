package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hetarch/internal/jobs"
	"hetarch/internal/mc"
	"hetarch/internal/mc/chaos"
	"hetarch/internal/obs/ledger"
)

// testDaemon is one in-process daemon life: daemonRun on its own
// goroutine with a cancellable context, plus the HTTP plumbing tests need.
type testDaemon struct {
	addr    string
	cancel  context.CancelFunc
	done    chan int
	stderr  *bytes.Buffer
	stopped bool
}

// startTestDaemon runs daemonRun under a cancellable child of parent, so
// mc bindings on parent (a fault injector) reach every job.
func startTestDaemon(t *testing.T, parent context.Context, cfg daemonConfig) *testDaemon {
	t.Helper()
	if cfg.listen == "" {
		cfg.listen = "127.0.0.1:0"
	}
	if cfg.addrFile == "" {
		cfg.addrFile = filepath.Join(t.TempDir(), "addr")
	}
	os.Remove(cfg.addrFile)
	ctx, cancel := context.WithCancel(parent)
	d := &testDaemon{cancel: cancel, done: make(chan int, 1), stderr: &bytes.Buffer{}}
	var stdout bytes.Buffer
	go func() { d.done <- daemonRun(ctx, cfg, &stdout, d.stderr) }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(cfg.addrFile); err == nil && len(b) > 0 {
			d.addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case code := <-d.done:
			t.Fatalf("daemon exited %d before listening: %s", code, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote addr-file; stderr: %s", d.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Cleanup(func() { d.stop(t) })
	return d
}

// stop shuts the daemon down like a SIGTERM would and waits for exit.
// Idempotent: the explicit mid-test stop and the cleanup stop coexist.
func (d *testDaemon) stop(t *testing.T) {
	t.Helper()
	if d.stopped {
		return
	}
	d.stopped = true
	d.cancel()
	select {
	case code := <-d.done:
		if code != exitOK {
			t.Errorf("daemon exited %d, want %d: %s", code, exitOK, d.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Error("daemon did not exit after context cancel")
	}
}

func (d *testDaemon) url(path string) string { return "http://" + d.addr + path }

func (d *testDaemon) submit(t *testing.T, req jobs.SubmitRequest) (jobs.Job, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(d.url("/jobs"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return j, resp.StatusCode
}

func (d *testDaemon) getJob(t *testing.T, id string) jobs.Job {
	t.Helper()
	resp, err := http.Get(d.url("/jobs/" + id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func (d *testDaemon) waitJob(t *testing.T, id, state string, timeout time.Duration) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j := d.getJob(t, id)
		if j.State == state {
			return j
		}
		if jobs.Terminal(j.State) || time.Now().After(deadline) {
			t.Fatalf("job %s is %q (err %q), want %q", id, j.State, j.Error, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *testDaemon) fetchOutput(t *testing.T, id string) string {
	t.Helper()
	resp, err := http.Get(d.url("/jobs/" + id + "/output"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET output = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

func TestServeFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		errs string
	}{
		{"missing data-dir", []string{"serve"}, "-data-dir is required"},
		{"bad log format", []string{"serve", "-data-dir", t.TempDir(), "-log-format", "xml"}, "-log-format must be"},
		{"negative pool", []string{"serve", "-data-dir", t.TempDir(), "-pool", "-1"}, "must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(context.Background(), tc.args, &stdout, &stderr); got != exitUsage {
				t.Fatalf("run(%q) = %d, want %d", tc.args, got, exitUsage)
			}
			if !strings.Contains(stderr.String(), tc.errs) {
				t.Fatalf("stderr %q missing %q", stderr.String(), tc.errs)
			}
		})
	}
}

// TestDaemonSubmitDedupLedger drives the full happy path over HTTP:
// submit fig9, follow it to done, check the output matches a direct CLI
// run byte for byte, check a duplicate spec is served without recomputing,
// and check the job's ledger envelope passes `hetarch runs show` digest
// verification.
func TestDaemonSubmitDedupLedger(t *testing.T) {
	ledgerDir := t.TempDir()
	d := startTestDaemon(t, context.Background(), daemonConfig{
		dataDir:   filepath.Join(t.TempDir(), "jobs"),
		ledgerDir: ledgerDir,
		logFormat: "text",
	})

	spec := jobs.Spec{Experiment: "fig9", Scale: "quick", Seed: 9, Shots: 512, Workers: 1}
	j, code := d.submit(t, jobs.SubmitRequest{Spec: spec, Tenant: "alice"})
	if code != http.StatusCreated {
		t.Fatalf("submit = %d, want 201", code)
	}
	done := d.waitJob(t, j.ID, jobs.StateDone, 2*time.Minute)
	if done.Metrics == nil || done.Metrics.Shots == 0 {
		t.Fatalf("done job has no headline metrics: %+v", done.Metrics)
	}
	if len(done.Artifacts) == 0 {
		t.Fatal("done job has no artifact manifest")
	}

	// The daemon's artifact must be bit-identical to the one-shot CLI's
	// stdout for the same spec.
	var want, discard bytes.Buffer
	if code := run(context.Background(), []string{"fig9", "-quick", "-shots", "512", "-seed", "9", "-workers", "1"}, &want, &discard); code != exitOK {
		t.Fatalf("direct run exited %d: %s", code, discard.String())
	}
	if got := d.fetchOutput(t, j.ID); got != want.String() {
		t.Fatalf("daemon output differs from direct run:\n-- daemon --\n%s\n-- direct --\n%s", got, want.String())
	}

	// Duplicate spec: 200 (not 201), same job, no recompute.
	dup, code := d.submit(t, jobs.SubmitRequest{Spec: spec, Tenant: "bob"})
	if code != http.StatusOK || !dup.Deduplicated || dup.ID != j.ID || dup.State != jobs.StateDone {
		t.Fatalf("duplicate submit: code=%d dedup=%v id=%s state=%s", code, dup.Deduplicated, dup.ID, dup.State)
	}

	// Cancelling a finished job is a 409.
	req, _ := http.NewRequest(http.MethodDelete, d.url("/jobs/"+j.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE done job = %d, want 409", resp.StatusCode)
	}

	// The run ledger has the job under its job ID, and the artifact
	// digests verify.
	var out, errb bytes.Buffer
	if code := runsMain([]string{"show", "-ledger-dir", ledgerDir, j.ID}, &out, &errb); code != exitOK {
		t.Fatalf("runs show exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), j.ID) || !strings.Contains(out.String(), "hetarchd") {
		t.Fatalf("runs show output missing job envelope:\n%s", out.String())
	}
	if strings.Contains(out.String(), "MISMATCH") || strings.Contains(out.String(), "MISSING") {
		t.Fatalf("artifact digests failed verification:\n%s", out.String())
	}
	// The job's envelope comes from the CLI's constructor: it names the
	// build that ran the job, and the workers the job ran with.
	lg, err := ledger.ReadFile(filepath.Join(ledgerDir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	env, err := lg.Find(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if env.GoVersion != runtime.Version() {
		t.Fatalf("job envelope go_version = %q, want %q", env.GoVersion, runtime.Version())
	}
	if env.Workers != 1 || env.Metrics == nil || env.Metrics.Shots != done.Metrics.Shots {
		t.Fatalf("job envelope workers %d, metrics %+v; want 1 worker and the job's %d shots", env.Workers, env.Metrics, done.Metrics.Shots)
	}

	// The jobs listing and the telemetry index coexist on one mux.
	resp2, err := http.Get(d.url("/jobs"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list struct {
		Jobs []jobs.Job `json:"jobs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 {
		t.Fatalf("GET /jobs returned %d jobs, want 1", len(list.Jobs))
	}

	// The span tree is gone: /spans is an unknown path.
	resp3, err := http.Get(d.url("/spans"))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /spans = %d, want 404", resp3.StatusCode)
	}
}

// TestDaemonRestartResumeBitIdentical is the crash-tolerance story: the
// daemon dies mid-job (context cancelled, like SIGTERM), the journal's
// last word is "running", and the next daemon life re-enqueues the job,
// resumes it from its per-job checkpoint, and produces output
// bit-identical to an uninterrupted run.
func TestDaemonRestartResumeBitIdentical(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "jobs")
	cfg := daemonConfig{
		dataDir:   dataDir,
		ledgerDir: "off",
		logFormat: "text",
		addrFile:  filepath.Join(t.TempDir(), "addr"),
	}

	// Per-shard latency keeps the sweep in flight long enough for the
	// kill to land mid-job, deterministically.
	slow := mc.WithFaultInjector(context.Background(), chaos.New(1).WithLatency(2*time.Millisecond))
	d1 := startTestDaemon(t, slow, cfg)

	spec := jobs.Spec{Experiment: "fig9", Scale: "quick", Seed: 11, Shots: 512, Workers: 1}
	j, code := d1.submit(t, jobs.SubmitRequest{Spec: spec, Tenant: "alice"})
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	// Wait until real progress is journaled to the checkpoint, then kill.
	deadline := time.Now().Add(time.Minute)
	for {
		got := d1.getJob(t, j.ID)
		if got.State == jobs.StateRunning && got.ShotsDone > 0 {
			break
		}
		if jobs.Terminal(got.State) {
			t.Fatalf("job finished before the kill landed (state %s); raise the chaos latency", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.stop(t)

	ckpt := filepath.Join(dataDir, j.ID, "checkpoint.jsonl")
	if st, err := os.Stat(ckpt); err != nil || st.Size() == 0 {
		t.Fatalf("no checkpoint written before the kill (err %v)", err)
	}

	// Second life over the same data dir: the job must come back and
	// finish without a fresh submission.
	d2 := startTestDaemon(t, context.Background(), cfg)
	recovered := d2.getJob(t, j.ID)
	if recovered.State != jobs.StateQueued && recovered.State != jobs.StateRunning && recovered.State != jobs.StateDone {
		t.Fatalf("recovered job state = %q, want it re-enqueued", recovered.State)
	}
	d2.waitJob(t, j.ID, jobs.StateDone, 2*time.Minute)

	var want, discard bytes.Buffer
	if code := run(context.Background(), []string{"fig9", "-quick", "-shots", "512", "-seed", "11", "-workers", "1"}, &want, &discard); code != exitOK {
		t.Fatalf("direct run exited %d: %s", code, discard.String())
	}
	if got := d2.fetchOutput(t, j.ID); got != want.String() {
		t.Fatalf("resumed output differs from uninterrupted run:\n-- resumed --\n%s\n-- direct --\n%s", got, want.String())
	}
}

// TestDaemonCancelRunningJob covers DELETE on a running job: terminal
// state cancelled, spec resubmittable.
func TestDaemonCancelRunningJob(t *testing.T) {
	slow := mc.WithFaultInjector(context.Background(), chaos.New(1).WithLatency(2*time.Millisecond))
	d := startTestDaemon(t, slow, daemonConfig{
		dataDir:   filepath.Join(t.TempDir(), "jobs"),
		ledgerDir: "off",
		logFormat: "text",
	})
	spec := jobs.Spec{Experiment: "fig9", Scale: "quick", Seed: 13, Shots: 512, Workers: 1}
	j, _ := d.submit(t, jobs.SubmitRequest{Spec: spec})
	d.waitJob(t, j.ID, jobs.StateRunning, time.Minute)

	req, _ := http.NewRequest(http.MethodDelete, d.url("/jobs/"+j.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		got := d.getJob(t, j.ID)
		if got.State == jobs.StateCancelled {
			break
		}
		if got.State == jobs.StateDone || got.State == jobs.StateFailed || time.Now().After(deadline) {
			t.Fatalf("cancelled job ended %q", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Output of a cancelled job does not exist.
	oresp, err := http.Get(d.url("/jobs/" + j.ID + "/output"))
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode == http.StatusOK {
		t.Fatal("cancelled job served an output artifact")
	}
}

// TestDaemonSSEStreamsTerminalState subscribes to a job's event stream and
// expects at least the terminal state frame before the stream closes.
func TestDaemonSSEStreamsTerminalState(t *testing.T) {
	d := startTestDaemon(t, context.Background(), daemonConfig{
		dataDir:   filepath.Join(t.TempDir(), "jobs"),
		ledgerDir: "off",
		logFormat: "text",
	})
	spec := jobs.Spec{Experiment: "devices", Scale: "quick", Seed: 1}
	j, _ := d.submit(t, jobs.SubmitRequest{Spec: spec})

	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Get(d.url("/jobs/" + j.ID + "/events"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf(`"state":%q`, jobs.StateDone)) {
		t.Fatalf("SSE stream never delivered the done state:\n%s", buf.String())
	}
}
