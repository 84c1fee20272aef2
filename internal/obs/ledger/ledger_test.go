package ledger_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/runlog"
)

func env(id string, arts ...ledger.Artifact) ledger.Envelope {
	return ledger.Envelope{
		RunID:      id,
		Tool:       "hetarch",
		Experiment: "fig9",
		Scale:      "quick",
		Seed:       7,
		StartedAt:  time.UnixMilli(1700000000000).UTC().Format(time.RFC3339Nano),
		Status:     ledger.StatusOK,
		Metrics:    ledger.NewHeadline(1000, 37, 2.0),
		Artifacts:  arts,
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{runlog.NewID(time.UnixMilli(1), 1), runlog.NewID(time.UnixMilli(2), 2)}
	for _, id := range ids {
		if err := l.Append(env(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lg, err := ledger.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if lg.Truncated || lg.Skipped != 0 {
		t.Fatalf("clean ledger read as truncated=%v skipped=%d", lg.Truncated, lg.Skipped)
	}
	if len(lg.Envelopes) != 2 {
		t.Fatalf("got %d envelopes, want 2", len(lg.Envelopes))
	}
	got := lg.Envelopes[0]
	if got.RunID != ids[0] || got.Type != "run" || got.Metrics == nil || got.Metrics.Shots != 1000 {
		t.Fatalf("round-tripped envelope mangled: %+v", got)
	}
	if got.Metrics.ErrorRateLo <= 0 || got.Metrics.ErrorRateHi <= got.Metrics.ErrorRateLo {
		t.Fatalf("headline Wilson CI not populated: %+v", got.Metrics)
	}
}

// TestTornTailMidEnvelope: a process killed mid-append leaves a partial
// line. Readers must drop exactly that record and report Truncated; a
// reopened ledger must heal the boundary so the next append is readable.
func TestTornTailMidEnvelope(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(env(runlog.NewID(time.UnixMilli(1), 1))); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate the torn write: half of a second envelope, no newline.
	f, err := os.OpenFile(l.Path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"run","run_id":"torn-partial`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	lg, err := ledger.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !lg.Truncated {
		t.Fatal("torn tail not reported")
	}
	if len(lg.Envelopes) != 1 {
		t.Fatalf("got %d envelopes, want the 1 intact one", len(lg.Envelopes))
	}

	// Reopen and append: the new envelope must land on a clean line.
	l2, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id2 := runlog.NewID(time.UnixMilli(2), 2)
	if err := l2.Append(env(id2)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	lg, err = ledger.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Envelopes) != 2 {
		t.Fatalf("after heal+append got %d envelopes, want 2", len(lg.Envelopes))
	}
	if lg.Envelopes[1].RunID != id2 {
		t.Fatalf("healed append run_id = %q, want %q", lg.Envelopes[1].RunID, id2)
	}
	// The torn record is now an interior garbage line: skipped, counted.
	if lg.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1 (the healed torn record)", lg.Skipped)
	}
}

// appendConcurrently has `handles` independently opened handles on one
// ledger.jsonl (separate processes, in effect) each append perWriter
// envelopes at once. The O_APPEND single-write line discipline must keep
// every line whole: each envelope parses and arrives exactly once.
func appendConcurrently(t *testing.T, handles, perWriter int) {
	t.Helper()
	dir := t.TempDir()
	var wg sync.WaitGroup
	for w := 0; w < handles; w++ {
		l, err := ledger.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		wg.Add(1)
		go func(w int, l *ledger.Ledger) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := env(fmt.Sprintf("writer%d-%04d-%s", w, i, strings.Repeat("x", 200)))
				if err := l.Append(e); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
			}
		}(w, l)
	}
	wg.Wait()
	lg, err := ledger.ReadFile(filepath.Join(dir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if lg.Truncated || lg.Skipped != 0 {
		t.Fatalf("interleaved appends tore lines: truncated=%v skipped=%d", lg.Truncated, lg.Skipped)
	}
	if len(lg.Envelopes) != handles*perWriter {
		t.Fatalf("got %d envelopes, want %d", len(lg.Envelopes), handles*perWriter)
	}
	seen := map[string]bool{}
	for _, e := range lg.Envelopes {
		if seen[e.RunID] {
			t.Fatalf("duplicate envelope %q", e.RunID)
		}
		seen[e.RunID] = true
	}
}

func TestConcurrentAppendsTwoHandles(t *testing.T) { appendConcurrently(t, 2, 50) }

func TestConcurrentAppendsManyHandles(t *testing.T) { appendConcurrently(t, 5, 25) }

func TestFindPrefix(t *testing.T) {
	lg := &ledger.Log{Envelopes: []ledger.Envelope{
		env("01aaaaaaaaaaaaaaaaaaaaaaaa"),
		env("01bbbbbbbbbbbbbbbbbbbbbbbb"),
		env("02cccccccccccccccccccccccc"),
	}}
	if e, err := lg.Find("02"); err != nil || e.RunID != "02cccccccccccccccccccccccc" {
		t.Fatalf("Find(02) = %v, %v", e, err)
	}
	if _, err := lg.Find("01"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous prefix not rejected: %v", err)
	}
	if _, err := lg.Find("zz"); err == nil || !strings.Contains(err.Error(), "no run matching") {
		t.Fatalf("unknown prefix not rejected: %v", err)
	}
	if e, err := lg.Find("01bbbbbbbbbbbbbbbbbbbbbbbb"); err != nil || e.RunID[2] != 'b' {
		t.Fatalf("exact ID lookup failed: %v, %v", e, err)
	}
}

// TestVerifyDetectsTampering: a bit-flipped artifact must fail digest
// verification; a deleted one must read as missing.
func TestVerifyDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "run.jsonl")
	if err := os.WriteFile(good, []byte(`{"type":"header"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	art, err := ledger.FileArtifact("recorder", good)
	if err != nil {
		t.Fatal(err)
	}
	if art.SHA256 == "" || art.Bytes == 0 {
		t.Fatalf("FileArtifact did not digest: %+v", art)
	}
	e := env("run1", art)

	results, bad := e.Verify()
	if bad != 0 || results[0].Status != ledger.VerifyOK {
		t.Fatalf("pristine artifact failed verify: %+v", results)
	}

	// Flip one byte.
	data, _ := os.ReadFile(good)
	data[3] ^= 0x40
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	results, bad = e.Verify()
	if bad != 1 || results[0].Status != ledger.VerifyMismatch {
		t.Fatalf("tampered artifact not flagged: %+v", results)
	}

	os.Remove(good)
	results, bad = e.Verify()
	if bad != 1 || results[0].Status != ledger.VerifyMissing {
		t.Fatalf("missing artifact not flagged: %+v", results)
	}
}

// TestGCPrunesGoneRuns: gc drops exactly the envelopes whose artifacts
// have all vanished, keeps artifact-less envelopes, and rewrites cleanly.
func TestGCPrunesGoneRuns(t *testing.T) {
	dir := t.TempDir()
	alive := filepath.Join(dir, "alive.json")
	if err := os.WriteFile(alive, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	must := func(e ledger.Envelope) {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	must(env("run-alive", ledger.Artifact{Kind: "trace", Path: alive}))
	must(env("run-gone", ledger.Artifact{Kind: "trace", Path: filepath.Join(dir, "deleted.json")}))
	must(env("run-bare")) // no artifacts: never pruned
	l.Close()

	kept, pruned, err := ledger.GC(l.Path(), true) // dry run
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 || len(pruned) != 1 || pruned[0].RunID != "run-gone" {
		t.Fatalf("dry-run partition kept=%d pruned=%d", len(kept), len(pruned))
	}
	if lg, _ := ledger.ReadFile(l.Path()); len(lg.Envelopes) != 3 {
		t.Fatal("dry run modified the ledger")
	}

	if _, _, err := ledger.GC(l.Path(), false); err != nil {
		t.Fatal(err)
	}
	lg, err := ledger.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Envelopes) != 2 {
		t.Fatalf("post-gc ledger has %d envelopes, want 2", len(lg.Envelopes))
	}
	for _, e := range lg.Envelopes {
		if e.RunID == "run-gone" {
			t.Fatal("gc kept the gone run")
		}
	}
}

// TestGCPreservesUnknownRecords: gc copies every line it keeps byte for
// byte, so record types and envelope fields this build does not know (an
// older binary's "fabric" stanza, a newer one's extra keys) survive the
// rewrite; only the pruned envelope's line goes.
func TestGCPreservesUnknownRecords(t *testing.T) {
	dir := t.TempDir()
	alive := filepath.Join(dir, "alive.json")
	if err := os.WriteFile(alive, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	quote := func(s string) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	future := `{"type":"future","payload":{"z":1,"a":[2,1]}}`
	kept := `{"type":"run","run_id":"run-kept","tool":"hetarch","seed":7,"started_at":"2023-11-14T22:13:20Z",` +
		`"status":"ok","artifacts":[{"kind":"trace","path":` + quote(alive) + `}],` +
		`"fabric":{"role":"coordinator","addr":"127.0.0.1:9","workers":2},"unknown_key":[1,"two"]}`
	gone := `{"type":"run","run_id":"run-gone","tool":"hetarch","seed":7,"started_at":"2023-11-14T22:13:20Z",` +
		`"status":"ok","artifacts":[{"kind":"trace","path":` + quote(filepath.Join(dir, "deleted.json")) + `}]}`
	path := filepath.Join(dir, ledger.FileName)
	if err := os.WriteFile(path, []byte(future+"\n"+kept+"\n"+gone+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	k, p, err := ledger.GC(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(k) != 1 || k[0].RunID != "run-kept" || len(p) != 1 || p[0].RunID != "run-gone" {
		t.Fatalf("gc partition kept=%v pruned=%v", k, p)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := future + "\n" + kept + "\n"; string(got) != want {
		t.Fatalf("gc rewrote kept lines:\n got: %s\nwant: %s", got, want)
	}
}

func TestReadFileMissingIsNotExist(t *testing.T) {
	_, err := ledger.ReadFile(filepath.Join(t.TempDir(), ledger.FileName))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing ledger error = %v, want fs.ErrNotExist", err)
	}
}

func TestDefaultDirEnvOverride(t *testing.T) {
	t.Setenv(ledger.EnvDir, "/tmp/somewhere")
	if d, ok := ledger.DefaultDir(); !ok || d != "/tmp/somewhere" {
		t.Fatalf("DefaultDir with env = %q, %v", d, ok)
	}
	t.Setenv(ledger.EnvDir, ledger.Off)
	if _, ok := ledger.DefaultDir(); ok {
		t.Fatal("DefaultDir did not honor off")
	}
}
