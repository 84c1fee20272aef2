package recorder

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hetarch/internal/obs"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	h := NewHeader("hetarch", "fig9", "quick", 42, 4, []string{"-quick", "-record", "run.jsonl"})
	if h.GoVersion != runtime.Version() || h.StartedAt == "" {
		t.Fatalf("header not self-describing: %+v", h)
	}
	if err := w.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(Batch{Name: "fig9", WallSeconds: 0.25, Shots: 90000, Errors: 1200, TotalShots: 90000}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(Batch{Name: "table3", WallSeconds: 0.5, Shots: 52500, Errors: 800, TotalShots: 142500}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Counter("surface.shots").Add(142500)
	if err := w.WriteFinal(Final{WallSeconds: 0.8, Metrics: reg.Snapshot()}); err != nil {
		t.Fatal(err)
	}

	// One JSON object per line, header first.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 JSONL lines, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"type":"header"`) {
		t.Fatalf("first line not a header: %s", lines[0])
	}

	run, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if run.Header.Experiment != "fig9" || run.Header.Seed != 42 || run.Header.Scale != "quick" {
		t.Fatalf("header %+v", run.Header)
	}
	if len(run.Batches) != 2 || run.Batches[1].Name != "table3" {
		t.Fatalf("batches %+v", run.Batches)
	}
	if run.TotalShots() != 142500 || run.TotalErrors() != 2000 {
		t.Fatalf("totals: shots=%d errors=%d", run.TotalShots(), run.TotalErrors())
	}
	if run.Final == nil || run.Final.Metrics.Counter("surface.shots") != 142500 {
		t.Fatalf("final %+v", run.Final)
	}
}

func TestReadTruncatedRun(t *testing.T) {
	// A crashed run has a header and some batches but no final record.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHeader(NewHeader("hetarch", "all", "full", 1, 1, nil))
	w.WriteBatch(Batch{Name: "fig3", WallSeconds: 1, Shots: 10})
	run, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if run.Final != nil || len(run.Batches) != 1 {
		t.Fatalf("truncated run parsed as %+v", run)
	}
}

func TestReadRejectsMalformedArtifacts(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no header":        `{"type":"batch","name":"x"}` + "\n",
		"duplicate header": `{"type":"header"}` + "\n" + `{"type":"header"}` + "\n",
		"bad json":         `{"type":"header"}` + "\n" + "{nope\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestFileWriterFinalizeAtomic: an artifact finalized as the CLI does it,
// WriteFinal and then Close, reads back whole, with its batches and final
// record, and leaves no other file beside it.
func TestFileWriterFinalizeAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	w, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(NewHeader("hetarch", "fig9", "quick", 7, 2, nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(Batch{Name: "fig9", Shots: 512, TotalShots: 512}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFinal(Final{WallSeconds: 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Close must be a clean no-op (the CLI defers one).
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("finalize left %d files beside the artifact (err=%v)", len(ents)-1, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if run.Truncated || run.Final == nil || run.Final.WallSeconds != 1.5 {
		t.Fatalf("finalized artifact parsed as %+v (final %+v)", run, run.Final)
	}
	if len(run.Batches) != 1 || run.TotalShots() != 512 {
		t.Fatalf("batches lost through finalize: %+v", run.Batches)
	}
}

func TestReadTruncatedFinalSnapshot(t *testing.T) {
	// Fixture: a run whose final metrics snapshot was torn mid-write by a
	// kill. The partial final line must be dropped (Final nil, Truncated
	// set) with every batch before it intact.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHeader(NewHeader("hetarch", "fig9", "quick", 7, 2, nil))
	w.WriteBatch(Batch{Name: "fig9", Shots: 512, TotalShots: 512})
	reg := obs.NewRegistry()
	reg.Counter("surface.shots").Add(512)
	w.WriteFinal(Final{WallSeconds: 2, Metrics: reg.Snapshot()})

	torn := buf.Bytes()[:buf.Len()-17] // cut inside the final record's JSON
	run, err := Read(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if !run.Truncated {
		t.Fatal("torn final snapshot not reported as truncated")
	}
	if run.Final != nil {
		t.Fatalf("torn final snapshot surfaced as %+v", run.Final)
	}
	if len(run.Batches) != 1 || run.TotalShots() != 512 {
		t.Fatalf("batches before the tear were lost: %+v", run.Batches)
	}
}

func TestReadTailWithoutNewlineIsComplete(t *testing.T) {
	// A file whose last record lost only its newline (flush raced the kill)
	// still carries a complete JSON object: keep it.
	in := `{"type":"header","experiment":"fig9"}` + "\n" +
		`{"type":"batch","name":"fig9","shots":5}` // no trailing newline
	run, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if run.Truncated || len(run.Batches) != 1 || run.TotalShots() != 5 {
		t.Fatalf("newline-less complete tail mishandled: %+v", run)
	}
}

func TestReadSkipsUnknownRecordTypes(t *testing.T) {
	in := `{"type":"header","experiment":"fig9"}` + "\n" +
		`{"type":"comment","text":"from a future version"}` + "\n" +
		`{"type":"batch","name":"fig9","shots":5}` + "\n"
	run, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Batches) != 1 || run.TotalShots() != 5 {
		t.Fatalf("unknown type not skipped cleanly: %+v", run)
	}
}
