package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hetarch/internal/obs"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/recorder"
	"hetarch/internal/obs/runlog"
)

// runCLI invokes run() and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunLedgerEndToEnd is the tentpole acceptance test: a run with
// -record -checkpoint -trace-out yields artifacts that all embed the same
// run ID, the ledger envelope manifests them with digests, `runs show`
// verifies every digest, and a bit-flipped artifact fails verification
// with a non-zero exit. The recorder's final record carries the run's
// end-of-run runtime.* gauges.
func TestRunLedgerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ledgerDir := filepath.Join(dir, "ledger")
	rec := filepath.Join(dir, "rec.jsonl")
	ck := filepath.Join(dir, "ck.jsonl")
	tr := filepath.Join(dir, "trace.json")

	allocBefore := obs.Default.Snapshot().Gauge("runtime.total_alloc_bytes")
	code, _, errOut := runCLI(t, "fig9", "-quick", "-shots", "512", "-seed", "7",
		"-record", rec, "-checkpoint", ck, "-trace-out", tr, "-ledger-dir", ledgerDir)
	if code != exitOK {
		t.Fatalf("run exited %d: %s", code, errOut)
	}

	lg, err := ledger.ReadFile(filepath.Join(ledgerDir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Envelopes) != 1 {
		t.Fatalf("ledger has %d envelopes, want 1", len(lg.Envelopes))
	}
	e := lg.Envelopes[0]
	if e.Status != ledger.StatusOK || !runlog.ValidID(e.RunID) {
		t.Fatalf("envelope status=%q run_id=%q", e.Status, e.RunID)
	}
	if e.Metrics == nil || e.Metrics.Shots == 0 || e.Metrics.ErrorRateHi <= e.Metrics.ErrorRateLo {
		t.Fatalf("envelope missing headline metrics: %+v", e.Metrics)
	}
	kinds := map[string]bool{}
	for _, a := range e.Artifacts {
		kinds[a.Kind] = true
		if a.SHA256 == "" || a.Bytes == 0 {
			t.Fatalf("artifact %s has no digest: %+v", a.Path, a)
		}
	}
	for _, k := range []string{"recorder", "checkpoint", "trace"} {
		if !kinds[k] {
			t.Fatalf("manifest missing %s artifact (kinds: %v)", k, kinds)
		}
	}

	// Every artifact embeds the envelope's run ID.
	f, err := os.Open(rec)
	if err != nil {
		t.Fatal(err)
	}
	recRun, err := recorder.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if recRun.Header.RunID != e.RunID {
		t.Fatalf("recorder header run_id = %q, envelope %q", recRun.Header.RunID, e.RunID)
	}
	if recRun.Final == nil {
		t.Fatal("recorder artifact has no final record")
	}
	gauges := recRun.Final.Metrics.Gauges
	for _, name := range []string{
		"runtime.heap_alloc_bytes", "runtime.total_alloc_bytes", "runtime.mallocs",
		"runtime.gc_cycles", "runtime.goroutines", "runtime.gomaxprocs",
		"runtime.gc_pause_p50_ns", "runtime.gc_pause_p99_ns",
		"runtime.sched_latency_p50_ns", "runtime.sched_latency_p99_ns",
	} {
		if _, ok := gauges[name]; !ok {
			t.Errorf("final record lacks gauge %s", name)
		}
	}
	if got, want := gauges["runtime.gomaxprocs"], float64(runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("final record runtime.gomaxprocs = %v, want %v", got, want)
	}
	// The registry is process-wide, so an earlier run may have set these
	// gauges; a cumulative one that grew proves this run sampled them.
	if got := gauges["runtime.total_alloc_bytes"]; got <= allocBefore {
		t.Errorf("final record runtime.total_alloc_bytes = %v, not above the %v before the run", got, allocBefore)
	}
	ckData, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	var ckMeta struct {
		RunID string `json:"run_id"`
	}
	if err := json.Unmarshal(ckData[:bytes.IndexByte(ckData, '\n')], &ckMeta); err != nil {
		t.Fatal(err)
	}
	if ckMeta.RunID != e.RunID {
		t.Fatalf("checkpoint meta run_id = %q, envelope %q", ckMeta.RunID, e.RunID)
	}
	trData, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var trFile struct {
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(trData, &trFile); err != nil {
		t.Fatal(err)
	}
	if trFile.OtherData["run_id"] != e.RunID {
		t.Fatalf("trace otherData run_id = %q, envelope %q", trFile.OtherData["run_id"], e.RunID)
	}

	// runs show verifies every digest.
	code, out, errOut := runCLI(t, "runs", "show", "-ledger-dir", ledgerDir, e.RunID)
	if code != exitOK {
		t.Fatalf("runs show exited %d: %s", code, errOut)
	}
	if !strings.Contains(out, "verification ok") {
		t.Fatalf("runs show did not verify digests:\n%s", out)
	}

	// An unambiguous prefix works too.
	if code, _, errOut = runCLI(t, "runs", "show", "-ledger-dir", ledgerDir, e.RunID[:8]); code != exitOK {
		t.Fatalf("runs show by prefix exited %d: %s", code, errOut)
	}

	// Bit-flip one artifact: verification must fail non-zero.
	data, _ := os.ReadFile(rec)
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(rec, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCLI(t, "runs", "show", "-ledger-dir", ledgerDir, e.RunID)
	if code == exitOK {
		t.Fatalf("runs show exited 0 on a tampered artifact:\n%s", out)
	}
	if !strings.Contains(out, "mismatch") {
		t.Fatalf("runs show did not flag the tampered artifact:\n%s", out)
	}
}

// TestRunsFromAnotherDirectory: the default ledger is shared by every
// directory, so a run that names its artifacts with relative paths must
// still show, diff and survive gc when `runs` is invoked from another
// working directory. It changes the process's working directory, so it
// must not run in parallel with other tests.
func TestRunsFromAnotherDirectory(t *testing.T) {
	runDir, otherDir := t.TempDir(), t.TempDir()
	ledgerDir := filepath.Join(t.TempDir(), "ledger")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	chdir := func(dir string) {
		t.Helper()
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
	}

	chdir(runDir)
	code, _, errOut := runCLI(t, "fig9", "-quick", "-shots", "256", "-seed", "7",
		"-record", "rec.jsonl", "-checkpoint", "ck.jsonl", "-trace-out", "trace.json", "-ledger-dir", ledgerDir)
	if code != exitOK {
		t.Fatalf("run exited %d: %s", code, errOut)
	}
	lg, err := ledger.ReadFile(filepath.Join(ledgerDir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Envelopes) != 1 || len(lg.Envelopes[0].Artifacts) != 3 {
		t.Fatalf("want one envelope with three artifacts, got %+v", lg.Envelopes)
	}
	id := lg.Envelopes[0].RunID
	for _, a := range lg.Envelopes[0].Artifacts {
		if !filepath.IsAbs(a.Path) {
			t.Errorf("%s artifact path %q is not absolute", a.Kind, a.Path)
		}
	}

	chdir(otherDir)
	if code, out, errOut := runCLI(t, "runs", "show", "-ledger-dir", ledgerDir, id); code != exitOK {
		t.Fatalf("runs show from another directory exited %d: %s\n%s", code, errOut, out)
	}
	if code, out, errOut := runCLI(t, "runs", "diff", "-ledger-dir", ledgerDir, id, id); code != exitOK {
		t.Fatalf("runs diff from another directory exited %d: %s\n%s", code, errOut, out)
	}
	code, out, errOut := runCLI(t, "runs", "gc", "-ledger-dir", ledgerDir, "-dry-run")
	if code != exitOK || !strings.Contains(out, "gc: 1 kept, 0 would prune") {
		t.Fatalf("runs gc -dry-run from another directory exited %d: %s\n%s", code, errOut, out)
	}
}

// TestRunsListDiffGC drives the remaining subcommands over a ledger of two
// CLI runs and one envelope of the retired hetarchd job service: list
// tables all three, show verifies the job's "output" digest, diff routes
// the recorder artifacts through the obs/diff gates (identical runs: exit
// 0), and gc prunes a run once its artifacts are deleted.
func TestRunsListDiffGC(t *testing.T) {
	dir := t.TempDir()
	ledgerDir := filepath.Join(dir, "ledger")
	recA := filepath.Join(dir, "a.jsonl")
	recB := filepath.Join(dir, "b.jsonl")
	for _, rec := range []string{recA, recB} {
		if code, _, errOut := runCLI(t, "fig9", "-quick", "-shots", "256", "-seed", "7",
			"-record", rec, "-ledger-dir", ledgerDir); code != exitOK {
			t.Fatalf("seed run exited %d: %s", code, errOut)
		}
	}
	lg, err := ledger.ReadFile(filepath.Join(ledgerDir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Envelopes) != 2 {
		t.Fatalf("ledger has %d envelopes, want 2", len(lg.Envelopes))
	}
	idA, idB := lg.Envelopes[0].RunID, lg.Envelopes[1].RunID

	// Ledgers on disk may hold envelopes the hetarchd job service wrote:
	// tool "hetarchd" and an "output" artifact (the job's table). This one
	// also carries a "cache" artifact in the form the retired on-disk
	// characterization cache wrote, with the entry's content key.
	output := filepath.Join(dir, "output.txt")
	if err := os.WriteFile(output, []byte("fig9 table\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, size, err := ledger.HashFile(output)
	if err != nil {
		t.Fatal(err)
	}
	cacheKey := strings.Repeat("5e", 32)
	entry := filepath.Join(dir, cacheKey+".json")
	if err := os.WriteFile(entry, []byte(`{"format":"hetarch-charcache","key":"`+cacheKey+`"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	entrySum, entrySize, err := ledger.HashFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	jobID := runlog.MintID(9)
	line := fmt.Sprintf(`{"type":"run","run_id":%q,"tool":"hetarchd","experiment":"fig9","scale":"quick",`+
		`"seed":9,"shots":512,"workers":1,"args":["serve","tenant:alice","fingerprint:0f3a"],`+
		`"started_at":"2026-01-02T03:04:05Z","status":"ok","metrics":{"shots":90000,"logical_errors":900},`+
		`"artifacts":[{"kind":"output","path":%q,"sha256":%q,"bytes":%d},`+
		`{"kind":"cache","path":%q,"key":%q,"sha256":%q,"bytes":%d}]}`+"\n",
		jobID, output, sum, size, entry, cacheKey, entrySum, entrySize)
	f, err := os.OpenFile(filepath.Join(ledgerDir, ledger.FileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line); err != nil {
		t.Fatal(err)
	}
	f.Close()

	code, out, _ := runCLI(t, "runs", "list", "-ledger-dir", ledgerDir)
	if code != exitOK {
		t.Fatalf("runs list exited %d", code)
	}
	for _, id := range []string{idA, idB, jobID} {
		if !strings.Contains(out, id) {
			t.Fatalf("runs list missing run ID %s:\n%s", id, out)
		}
	}
	code, out, errOut := runCLI(t, "runs", "show", "-ledger-dir", ledgerDir, jobID)
	if code != exitOK || !strings.Contains(out, "hetarchd serve") || !strings.Contains(out, "verification ok: 2 artifacts") {
		t.Fatalf("runs show of a hetarchd envelope exited %d: %s\n%s", code, errOut, out)
	}

	// Generous throughput tolerance: the two seed runs are sub-second, so
	// wall-clock noise swamps the shots/sec comparison; what this test pins
	// is the plumbing (ledger -> recorder artifacts -> diff gates) and the
	// error-rate CI gate, which is deterministic.
	code, out, errOut = runCLI(t, "runs", "diff", "-ledger-dir", ledgerDir, "-tol", "0.95", idA, idB)
	if code != exitOK {
		t.Fatalf("runs diff of identical runs exited %d: %s\n%s", code, errOut, out)
	}
	// A file and a run ID mix; an unknown run or one without a recorder
	// artifact yields no report (exit 2).
	for _, tc := range []struct {
		old, new string
		want     int
	}{
		{recA, idB, exitOK},
		{idA, "nosuchrun", exitUsage},
		{idA, jobID, exitUsage},
	} {
		if code, out, errOut = runCLI(t, "runs", "diff", "-ledger-dir", ledgerDir, "-tol", "0.95", tc.old, tc.new); code != tc.want {
			t.Fatalf("runs diff %s %s exited %d, want %d: %s\n%s", tc.old, tc.new, code, tc.want, errOut, out)
		}
	}

	// Delete run A's only artifact: gc must prune exactly that envelope.
	if err := os.Remove(recA); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCLI(t, "runs", "gc", "-ledger-dir", ledgerDir, "-dry-run")
	if code != exitOK || !strings.Contains(out, idA) {
		t.Fatalf("gc -dry-run (exit %d) did not name the prunable run:\n%s", code, out)
	}
	// A stray word ends flag parsing, so the -dry-run after it would be
	// lost and gc would prune for real. It is a usage error instead, and
	// the ledger is left byte-identical.
	ledgerPath := filepath.Join(ledgerDir, ledger.FileName)
	before, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runCLI(t, "runs", "gc", "-ledger-dir", ledgerDir, "now", "-dry-run")
	if code != exitUsage || !strings.Contains(errOut, `unexpected argument "now"`) {
		t.Fatalf("gc with a stray argument exited %d, want %d: %s", code, exitUsage, errOut)
	}
	if after, err := os.ReadFile(ledgerPath); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("gc with a stray argument changed the ledger (read error %v)", err)
	}
	if code, _, _ = runCLI(t, "runs", "gc", "-ledger-dir", ledgerDir); code != exitOK {
		t.Fatalf("runs gc exited %d", code)
	}
	lg, err = ledger.ReadFile(filepath.Join(ledgerDir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Envelopes) != 2 || lg.Envelopes[0].RunID != idB || lg.Envelopes[1].RunID != jobID {
		t.Fatalf("post-gc ledger wrong: %d envelopes", len(lg.Envelopes))
	}
	// gc rewrote the file; the old envelope survives byte for byte, its
	// cache artifact's key included.
	raw, err := os.ReadFile(filepath.Join(ledgerDir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), line) {
		t.Fatalf("gc altered the old envelope; want line\n%s\nin ledger\n%s", line, raw)
	}
}

// writeRecorderRun writes a quick-scale recorder artifact with one batch of
// 90000 shots and 900 errors; wall sets the batch's throughput.
func writeRecorderRun(t *testing.T, dir, name, experiment string, wall float64) string {
	t.Helper()
	var buf bytes.Buffer
	w := recorder.NewWriter(&buf)
	if err := w.WriteHeader(recorder.NewHeader("hetarch", experiment, "quick", 1, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(recorder.Batch{
		Name: experiment, WallSeconds: wall, Shots: 90000, Errors: 900, TotalShots: 90000,
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunsDiffFiles: `runs diff` over two recorder files needs no ledger,
// and exits 0 when nothing regressed, 1 on a regression and 2 when no
// report can be produced.
func TestRunsDiffFiles(t *testing.T) {
	t.Setenv(ledger.EnvDir, ledger.Off)
	dir := t.TempDir()
	base := writeRecorderRun(t, dir, "base.jsonl", "fig9", 0.1)
	same := writeRecorderRun(t, dir, "same.jsonl", "fig9", 0.101)
	slow := writeRecorderRun(t, dir, "slow.jsonl", "fig9", 0.25)
	other := writeRecorderRun(t, dir, "other.jsonl", "table3", 0.1)
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
		out  string // substring expected on stdout
	}{
		{"no regression", []string{base, same}, exitOK, "0 regression(s)"},
		{"throughput regression", []string{base, slow}, 1, "REGRESSION"},
		{"zero tolerance flags a 1% drop", []string{"-tol", "0", base, same}, 1, "REGRESSION"},
		{"report-only is not a flag", []string{"-report-only", base, slow}, exitUsage, ""},
		{"incomparable artifacts", []string{base, other}, exitUsage, ""},
		{"unreadable artifact", []string{base, garbage}, exitUsage, ""},
		{"missing file", []string{base, filepath.Join(dir, "missing")}, exitUsage, ""},
		{"usage: too few args", []string{base}, exitUsage, ""},
		{"usage: bad flag", []string{"-no-such-flag", base, same}, exitUsage, ""},
		{"usage: negative tol", []string{"-tol", "-0.1", base, same}, exitUsage, ""},
		{"usage: NaN tol", []string{"-tol", "NaN", base, same}, exitUsage, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCLI(t, append([]string{"runs", "diff"}, tc.args...)...)
			if code != tc.want {
				t.Fatalf("runs diff %v = %d, want %d\nstdout: %s\nstderr: %s", tc.args, code, tc.want, out, errOut)
			}
			if !strings.Contains(out, tc.out) {
				t.Fatalf("runs diff %v: stdout missing %q:\n%s", tc.args, tc.out, out)
			}
		})
	}
}

// TestRunsDiffReportMentionsRegression: the report flags the regressed
// batch by name on a REGRESSION line.
func TestRunsDiffReportMentionsRegression(t *testing.T) {
	t.Setenv(ledger.EnvDir, ledger.Off)
	dir := t.TempDir()
	base := writeRecorderRun(t, dir, "base.jsonl", "fig9", 0.1)
	slow := writeRecorderRun(t, dir, "slow.jsonl", "fig9", 0.25)
	code, out, errOut := runCLI(t, "runs", "diff", base, slow)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "REGRESSION") && strings.Contains(line, "fig9") {
			return
		}
	}
	t.Fatalf("report does not flag the fig9 regression:\n%s", out)
}

// TestRunsUsageErrors: bad invocations are usage errors (exit 2).
func TestRunsUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"runs"},
		{"runs", "frobnicate"},
		{"runs", "show"},
		{"runs", "diff", "onlyone"},
		{"runs", "list", "x"},
	} {
		if code, _, _ := runCLI(t, args...); code != exitUsage {
			t.Errorf("run(%q) = %d, want %d", args, code, exitUsage)
		}
	}
}

// TestLedgerResultsNeutral is the acceptance criterion that provenance
// never perturbs physics: recorded runs with and without a ledger produce
// bit-identical stdout at workers 1 and 4.
func TestLedgerResultsNeutral(t *testing.T) {
	dir := t.TempDir()
	for _, workers := range []string{"1", "4"} {
		base := []string{"fig9", "-quick", "-shots", "512", "-seed", "7", "-workers", workers,
			"-record", filepath.Join(dir, "neutral-"+workers+".jsonl")}
		code, with, errOut := runCLI(t, append(base, "-ledger-dir", filepath.Join(dir, "ledger"))...)
		if code != exitOK {
			t.Fatalf("ledger run (workers %s) exited %d: %s", workers, code, errOut)
		}
		code, without, errOut := runCLI(t, append(base, "-ledger-dir", ledger.Off)...)
		if code != exitOK {
			t.Fatalf("off run (workers %s) exited %d: %s", workers, code, errOut)
		}
		if with != without {
			t.Fatalf("workers %s: stdout with ledger differs from without:\n-- with --\n%s\n-- without --\n%s",
				workers, with, without)
		}
	}
}

// TestResumeRecordsProvenance: a run adopting an earlier run's checkpoint
// records that run's ID as resumed_from in its envelope.
func TestResumeRecordsProvenance(t *testing.T) {
	dir := t.TempDir()
	ledgerDir := filepath.Join(dir, "ledger")
	ck := filepath.Join(dir, "ck.jsonl")
	argv := []string{"fig9", "-quick", "-shots", "256", "-seed", "7", "-checkpoint", ck, "-ledger-dir", ledgerDir}
	if code, _, errOut := runCLI(t, argv...); code != exitOK {
		t.Fatalf("first run exited %d: %s", code, errOut)
	}
	if code, _, errOut := runCLI(t, argv...); code != exitOK {
		t.Fatalf("second run exited %d: %s", code, errOut)
	}
	lg, err := ledger.ReadFile(filepath.Join(ledgerDir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Envelopes) != 2 {
		t.Fatalf("ledger has %d envelopes, want 2", len(lg.Envelopes))
	}
	first, second := lg.Envelopes[0], lg.Envelopes[1]
	if second.ResumedFrom != first.RunID {
		t.Fatalf("second run resumed_from = %q, want first run %q", second.ResumedFrom, first.RunID)
	}
	if first.ResumedFrom != "" {
		t.Fatalf("first run claims resumed_from = %q", first.ResumedFrom)
	}
}
