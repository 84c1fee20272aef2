package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hetarch/internal/mc"
	"hetarch/internal/mc/chaos"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/recorder"
)

// TestMain points the default run-ledger location at a throwaway directory:
// the ledger is on by default, and tests must never journal into the real
// ~/.hetarch.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hetarch-test-ledger-")
	if err != nil {
		panic(err)
	}
	os.Setenv(ledger.EnvDir, dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestRunFlagValidation: misconfiguration must be a usage error (exit 2)
// diagnosed before any Monte Carlo work starts.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
		errs string // substring expected on stderr
	}{
		{"missing name", nil, exitUsage, "missing experiment name"},
		{"flag before name", []string{"-quick", "fig9"}, exitUsage, "first argument must be the experiment name"},
		{"unknown experiment", []string{"fig99"}, exitUsage, `unknown experiment "fig99"`},
		{"serve is not an experiment", []string{"serve"}, exitUsage, `unknown experiment "serve"`},
		{"name checked before flags", []string{"serve", "-data-dir", "d"}, exitUsage, `unknown experiment "serve"`},
		{"zero shots", []string{"fig9", "-shots", "0"}, exitUsage, "-shots must be positive"},
		{"negative shots", []string{"fig9", "-shots", "-100"}, exitUsage, "-shots must be positive"},
		{"negative workers", []string{"fig9", "-workers", "-1"}, exitUsage, "-workers must be >= 0"},
		{"unknown flag", []string{"fig9", "-no-such-flag"}, exitUsage, "flag provided but not defined"},
		{"zero trace sample", []string{"fig9", "-trace-out", "t.json", "-trace-sample", "0"}, exitUsage, "-trace-sample must be >= 1"},
		{"trace sample without sink", []string{"fig9", "-trace-sample", "4"}, exitUsage, "no effect without -trace-out\n"},
		{"listen is not a flag", []string{"fig9", "-listen", "127.0.0.1:0"}, exitUsage, "flag provided but not defined: -listen"},
		{"cache-dir is not a flag", []string{"dse", "-cache-dir", "d"}, exitUsage, "flag provided but not defined: -cache-dir"},
		{"zero timeout", []string{"fig9", "-timeout", "0s"}, exitUsage, "-timeout must be positive"},
		{"stray argument drops no flags", []string{"fig9", "-quick", "stray", "-seed", "99"}, exitUsage, `unexpected argument "stray"`},
		{"ok no-MC experiment", []string{"devices"}, exitOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(context.Background(), tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%q) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			if tc.errs != "" && !strings.Contains(stderr.String(), tc.errs) {
				t.Fatalf("stderr %q missing %q", stderr.String(), tc.errs)
			}
			if tc.want == exitUsage && !strings.Contains(stderr.String(), "usage: hetarch") {
				t.Fatal("usage error did not print usage")
			}
		})
	}
}

// TestChaosCLIInterruptResumeBitIdentical exercises the full operator story
// in-process: a SIGINT lands mid-sweep (raised at a deterministic shard
// boundary by the chaos injector), run exits with the distinct interrupted
// code, and re-invoking with the identical argv resumes from the checkpoint
// and prints a table bit-identical to an uninterrupted run.
func TestChaosCLIInterruptResumeBitIdentical(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	argv := []string{"fig9", "-quick", "-shots", "512", "-seed", "7", "-checkpoint", ckpt}

	// Reference: same flags, no checkpoint file, never interrupted.
	var want, discard bytes.Buffer
	if code := run(context.Background(), []string{"fig9", "-quick", "-shots", "512", "-seed", "7"}, &want, &discard); code != exitOK {
		t.Fatalf("reference run exited %d: %s", code, discard.String())
	}

	// First attempt: raise SIGINT after 10 shards. run() has the signal
	// context registered for its whole body, so the process-directed signal
	// is absorbed there instead of killing the test binary; the per-shard
	// latency keeps the sweep in flight while the signal is delivered.
	in := chaos.New(1).WithLatency(2*time.Millisecond).CancelAfter(10, func() {
		syscall.Kill(syscall.Getpid(), syscall.SIGINT)
	})
	var out1, err1 bytes.Buffer
	code := run(mc.WithFaultInjector(context.Background(), in), argv, &out1, &err1)
	if code != exitInterrupted {
		t.Fatalf("interrupted run exited %d, want %d (stderr: %s)", code, exitInterrupted, err1.String())
	}
	if !strings.Contains(err1.String(), "run.interrupted") || !strings.Contains(err1.String(), "resume=") {
		t.Fatalf("stderr missing interrupt event with resume hint: %s", err1.String())
	}

	// Second attempt: same argv, no chaos. Must resume and finish clean.
	var out2, err2 bytes.Buffer
	if code := run(context.Background(), argv, &out2, &err2); code != exitOK {
		t.Fatalf("resume run exited %d: %s", code, err2.String())
	}
	if !strings.Contains(err2.String(), "run.checkpoint_resume") || !strings.Contains(err2.String(), "experiment=fig9") {
		t.Fatalf("resume run did not report resumed shards: %s", err2.String())
	}
	if out2.String() != want.String() {
		t.Fatalf("resumed output differs from uninterrupted run:\n-- resumed --\n%s\n-- reference --\n%s",
			out2.String(), want.String())
	}
}

// TestChaosCLIAllResumeBitIdentical: the checkpoint scope spans the whole
// `all` sequence, so a SIGINT that lands after fig6 has completed (and
// fig7 has started) must resume with fig6 served from the checkpoint under
// the same run numbers, and print stdout bit-identical to an uninterrupted
// run.
func TestChaosCLIAllResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick `all` sequence three times")
	}
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	flags := []string{"-quick", "-shots", "512", "-workers", "2"}
	argv := append([]string{"all", "-checkpoint", ckpt}, flags...)

	var want, discard bytes.Buffer
	if code := run(context.Background(), append([]string{"all"}, flags...), &want, &discard); code != exitOK {
		t.Fatalf("reference run exited %d: %s", code, discard.String())
	}

	// At this scale fig6 completes 48 shards, the first Monte Carlo shards
	// of the sequence; the 60th completed shard lies inside fig7.
	const cutShards = 60
	in := chaos.New(1).WithLatency(2*time.Millisecond).CancelAfter(cutShards, func() {
		syscall.Kill(syscall.Getpid(), syscall.SIGINT)
	})
	var out1, err1 bytes.Buffer
	code := run(mc.WithFaultInjector(context.Background(), in), argv, &out1, &err1)
	if code != exitInterrupted {
		t.Fatalf("interrupted run exited %d, want %d (stderr: %s)", code, exitInterrupted, err1.String())
	}

	var out2, err2 bytes.Buffer
	if code := run(context.Background(), argv, &out2, &err2); code != exitOK {
		t.Fatalf("resume run exited %d: %s", code, err2.String())
	}
	m := regexp.MustCompile(`run\.checkpoint_resume .*shards_done=(\d+)`).FindStringSubmatch(err2.String())
	if m == nil {
		t.Fatalf("resume run did not report resumed shards: %s", err2.String())
	}
	if n, _ := strconv.Atoi(m[1]); n < cutShards {
		t.Fatalf("resumed %d shards, want >= %d (past fig6)", n, cutShards)
	}
	if out2.String() != want.String() {
		t.Fatalf("resumed output differs from uninterrupted run:\n-- resumed --\n%s\n-- reference --\n%s",
			out2.String(), want.String())
	}
}

// TestTimeoutDeadlineInterrupts: a -timeout deadline must wind the run down
// through the interrupt path — exit 3, checkpoint flushed — and a rerun
// without the deadline resumes to output bit-identical to an undisturbed
// run.
func TestTimeoutDeadlineInterrupts(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	argv := []string{"fig9", "-quick", "-shots", "512", "-seed", "7", "-checkpoint", ckpt, "-ledger-dir", "off"}

	var want, discard bytes.Buffer
	if code := run(context.Background(), []string{"fig9", "-quick", "-shots", "512", "-seed", "7", "-ledger-dir", "off"}, &want, &discard); code != exitOK {
		t.Fatalf("reference run exited %d: %s", code, discard.String())
	}

	// Per-shard latency keeps the sweep in flight well past the deadline.
	slow := mc.WithFaultInjector(context.Background(), chaos.New(1).WithLatency(5*time.Millisecond))
	var out1, err1 bytes.Buffer
	code := run(slow, append(append([]string{}, argv...), "-timeout", "100ms"), &out1, &err1)
	if code != exitInterrupted {
		t.Fatalf("timed-out run exited %d, want %d (stderr: %s)", code, exitInterrupted, err1.String())
	}
	if !strings.Contains(err1.String(), "run.interrupted") {
		t.Fatalf("stderr missing interrupt event: %s", err1.String())
	}

	var out2, err2 bytes.Buffer
	if code := run(context.Background(), argv, &out2, &err2); code != exitOK {
		t.Fatalf("resume run exited %d: %s", code, err2.String())
	}
	if !strings.Contains(err2.String(), "run.checkpoint_resume") {
		t.Fatalf("resume run did not report resumed shards: %s", err2.String())
	}
	if out2.String() != want.String() {
		t.Fatalf("resumed output differs from undisturbed run:\n-- resumed --\n%s\n-- reference --\n%s",
			out2.String(), want.String())
	}
}

// TestReplayedRunKeepsShotTally: a run over an already complete checkpoint
// replays every shard instead of executing it, and must still account for
// the same shots and logical errors as the fresh run in its ledger
// headline, its recorder batch and its run.done event.
func TestReplayedRunKeepsShotTally(t *testing.T) {
	dir := t.TempDir()
	ledgerDir := filepath.Join(dir, "ledger")
	ckpt := filepath.Join(dir, "ck.jsonl")
	doneShots := regexp.MustCompile(`msg=run\.done .*shots=(\d+)`)
	type tally struct{ ledgerShots, ledgerErrs, batchShots, batchErrs, doneShots int64 }
	runOnce := func(record string) tally {
		t.Helper()
		var stdout, stderr bytes.Buffer
		argv := []string{"fig9", "-quick", "-seed", "7", "-shots", "512", "-checkpoint", ckpt,
			"-record", record, "-ledger-dir", ledgerDir}
		if code := run(context.Background(), argv, &stdout, &stderr); code != exitOK {
			t.Fatalf("run exited %d: %s", code, stderr.String())
		}
		lg, err := ledger.ReadFile(filepath.Join(ledgerDir, ledger.FileName))
		if err != nil {
			t.Fatal(err)
		}
		env := lg.Envelopes[len(lg.Envelopes)-1]
		f, err := os.Open(record)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rec, err := recorder.Read(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Batches) != 1 {
			t.Fatalf("recorder has %d batches, want 1", len(rec.Batches))
		}
		m := doneShots.FindStringSubmatch(stderr.String())
		if m == nil {
			t.Fatalf("no run.done event with shots: %s", stderr.String())
		}
		n, _ := strconv.ParseInt(m[1], 10, 64)
		return tally{env.Metrics.Shots, env.Metrics.LogicalErrors, rec.Batches[0].Shots, rec.Batches[0].Errors, n}
	}
	fresh := runOnce(filepath.Join(dir, "fresh.jsonl"))
	if fresh.ledgerShots == 0 || fresh.ledgerShots != fresh.batchShots || fresh.ledgerShots != fresh.doneShots {
		t.Fatalf("fresh run tallies disagree: %+v", fresh)
	}
	if replayed := runOnce(filepath.Join(dir, "replayed.jsonl")); replayed != fresh {
		t.Fatalf("replayed run tally %+v, want the fresh run's %+v", replayed, fresh)
	}
}

// chromeFile mirrors the Chrome Trace Event JSON object format for
// schema-checking -trace-out artifacts.
type chromeFile struct {
	TraceEvents     []map[string]any `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// loadChromeTrace parses and schema-checks a -trace-out file: every event
// needs a name, a known phase, and a pid; complete events need ts and dur.
// It returns the per-category event counts and the set of tids (lanes) seen
// per category.
func loadChromeTrace(t *testing.T, path string) (cats map[string]int, lanes map[string]map[int]bool) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var tr chromeFile
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	cats = map[string]int{}
	lanes = map[string]map[int]bool{}
	sawThreadName := false
	for _, ev := range tr.TraceEvents {
		name, _ := ev["name"].(string)
		if name == "" {
			t.Fatalf("event missing name: %v", ev)
		}
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			if name == "thread_name" {
				sawThreadName = true
			}
			continue
		case "X":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("complete event %q missing ts", name)
			}
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("complete event %q missing non-negative dur", name)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" {
				t.Fatalf("instant event %q missing thread scope", name)
			}
		default:
			t.Fatalf("event %q has unknown phase %q", name, ph)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %q missing pid", name)
		}
		tid, ok := ev["tid"].(float64)
		if !ok {
			t.Fatalf("event %q missing tid", name)
		}
		cat, _ := ev["cat"].(string)
		cats[cat]++
		if lanes[cat] == nil {
			lanes[cat] = map[int]bool{}
		}
		lanes[cat][int(tid)] = true
	}
	if !sawThreadName {
		t.Fatal("trace has no thread_name metadata (worker lanes unnamed)")
	}
	return cats, lanes
}

// TestTraceOutEndToEnd is the flight-profiler acceptance test: -trace-out
// must emit valid Chrome Trace Event JSON carrying mc shard-phase events
// (fig9), sample/decode sub-phases (fig6, surface runner), and one mc
// shard event per dse point on worker lanes — while stdout stays
// bit-identical to an untraced run at any -workers setting.
func TestTraceOutEndToEnd(t *testing.T) {
	dir := t.TempDir()
	runOK := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != exitOK {
			t.Fatalf("run(%q) exited %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}

	base := runOK("fig9", "-quick", "-shots", "512", "-seed", "7", "-workers", "1")
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "fig9-w"+workers+".json")
		out := runOK("fig9", "-quick", "-shots", "512", "-seed", "7",
			"-workers", workers, "-trace-out", path, "-trace-sample", "2")
		if out != base {
			t.Fatalf("-workers %s traced stdout diverges from untraced:\n%s\nvs\n%s", workers, out, base)
		}
		cats, lanes := loadChromeTrace(t, path)
		for _, want := range []string{"mc.shard", "mc.merge"} {
			if cats[want] == 0 {
				t.Fatalf("-workers %s trace has no %s events (cats: %v)", workers, want, cats)
			}
		}
		maxWorkers, _ := strconv.Atoi(workers)
		for lane := range lanes["mc.shard"] {
			if lane < 0 || lane >= maxWorkers {
				t.Fatalf("mc.shard event on lane %d, want [0,%s)", lane, workers)
			}
		}
	}

	// The surface runner adds per-batch sample/decode sub-phases.
	fig6 := filepath.Join(dir, "fig6.json")
	runOK("fig6", "-quick", "-shots", "256", "-seed", "7", "-trace-out", fig6, "-trace-sample", "1")
	cats, _ := loadChromeTrace(t, fig6)
	for _, want := range []string{"mc.shard", "mc.sample", "mc.decode"} {
		if cats[want] == 0 {
			t.Fatalf("fig6 trace has no %s events (cats: %v)", want, cats)
		}
	}

	// DSE points are one-point mc shards: the 70-point sweep shows up as
	// 70 mc.shard events on the two worker lanes.
	dsePath := filepath.Join(dir, "dse.json")
	runOK("dse", "-quick", "-workers", "2", "-trace-out", dsePath, "-trace-sample", "1")
	cats, lanes := loadChromeTrace(t, dsePath)
	if cats["mc.shard"] != 70 {
		t.Fatalf("dse trace has %d mc.shard events, want one per grid point, 70 (cats: %v)", cats["mc.shard"], cats)
	}
	for lane := range lanes["mc.shard"] {
		if lane < 0 || lane >= 2 {
			t.Fatalf("dse mc.shard event on lane %d, want [0,2)", lane)
		}
	}
}

// TestTraceOutRunTrack: the experiment and its table rows are unsampled
// complete events on the trace's "run" track: one run.experiment event for
// fig9, and one run.row event per code, each inside the experiment's
// interval, however sparse the shard sampling.
func TestTraceOutRunTrack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig9.json")
	var stdout, stderr bytes.Buffer
	argv := []string{"fig9", "-quick", "-shots", "512", "-seed", "7", "-trace-out", path, "-trace-sample", "1000000"}
	if code := run(context.Background(), argv, &stdout, &stderr); code != exitOK {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	loadChromeTrace(t, path) // schema check
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeFile
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	runPID := -1.0
	for _, ev := range tr.TraceEvents {
		if args, _ := ev["args"].(map[string]any); ev["name"] == "process_name" && args["name"] == "run" {
			runPID = ev["pid"].(float64)
		}
	}
	if runPID < 0 {
		t.Fatal("trace has no run track")
	}
	type span struct {
		name    string
		ts, end float64
	}
	var exps, rows []span
	for _, ev := range tr.TraceEvents {
		if ev["ph"] != "X" || ev["pid"] != runPID {
			continue
		}
		ts, dur := ev["ts"].(float64), ev["dur"].(float64)
		sp := span{ev["name"].(string), ts, ts + dur}
		switch ev["cat"] {
		case "run.experiment":
			exps = append(exps, sp)
		case "run.row":
			rows = append(rows, sp)
		}
	}
	if len(exps) != 1 || exps[0].name != "fig9" {
		t.Fatalf("run track experiment events %+v, want one for fig9", exps)
	}
	if len(rows) != 5 {
		t.Fatalf("run track has %d row events, want 5 (one per code): %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.ts < exps[0].ts || r.end > exps[0].end {
			t.Fatalf("row %q [%v,%v] lies outside fig9 [%v,%v]", r.name, r.ts, r.end, exps[0].ts, exps[0].end)
		}
	}
}

// TestDSEWorkerCountInvariant: the sweep table must be bit-identical at any
// -workers setting.
func TestDSEWorkerCountInvariant(t *testing.T) {
	runArgs := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != exitOK {
			t.Fatalf("run(%q) exited %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	base := runArgs("dse", "-quick", "-workers", "1")
	for _, args := range [][]string{
		{"dse", "-quick", "-workers", "4"},
		{"dse", "-quick"},
	} {
		if got := runArgs(args...); got != base {
			t.Fatalf("run(%q) stdout diverges from -workers 1:\n%s\nvs\n%s", args, got, base)
		}
	}
}
