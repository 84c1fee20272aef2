package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// with a non-zero exit.
func TestRunLedgerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ledgerDir := filepath.Join(dir, "ledger")
	rec := filepath.Join(dir, "rec.jsonl")
	ck := filepath.Join(dir, "ck.jsonl")
	tr := filepath.Join(dir, "trace.json")

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

// TestRunsListDiffGC drives the remaining subcommands over a two-run
// ledger: list tables both runs, diff routes the recorder artifacts
// through the obs/diff gates (identical runs: exit 0), and gc prunes a run
// once its artifacts are deleted.
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

	code, out, _ := runCLI(t, "runs", "list", "-ledger-dir", ledgerDir)
	if code != exitOK {
		t.Fatalf("runs list exited %d", code)
	}
	if !strings.Contains(out, idA) || !strings.Contains(out, idB) {
		t.Fatalf("runs list missing run IDs:\n%s", out)
	}

	// Generous throughput tolerance: the two seed runs are sub-second, so
	// wall-clock noise swamps the shots/sec comparison; what this test pins
	// is the plumbing (ledger -> recorder artifacts -> diff gates) and the
	// error-rate CI gate, which is deterministic.
	code, out, errOut := runCLI(t, "runs", "diff", "-ledger-dir", ledgerDir, "-tol", "0.95", idA, idB)
	if code != exitOK {
		t.Fatalf("runs diff of identical runs exited %d: %s\n%s", code, errOut, out)
	}

	// Delete run A's only artifact: gc must prune exactly that envelope.
	if err := os.Remove(recA); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCLI(t, "runs", "gc", "-ledger-dir", ledgerDir, "-dry-run")
	if code != exitOK || !strings.Contains(out, idA) {
		t.Fatalf("gc -dry-run (exit %d) did not name the prunable run:\n%s", code, out)
	}
	if code, _, _ = runCLI(t, "runs", "gc", "-ledger-dir", ledgerDir); code != exitOK {
		t.Fatalf("runs gc exited %d", code)
	}
	lg, err = ledger.ReadFile(filepath.Join(ledgerDir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Envelopes) != 1 || lg.Envelopes[0].RunID != idB {
		t.Fatalf("post-gc ledger wrong: %d envelopes", len(lg.Envelopes))
	}
}

// TestRunsUsageErrors: bad invocations are usage errors (exit 2).
func TestRunsUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"runs"},
		{"runs", "frobnicate"},
		{"runs", "show"},
		{"runs", "diff", "onlyone"},
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
