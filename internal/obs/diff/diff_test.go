package diff

import (
	"os"
	"path/filepath"
	"testing"

	"hetarch/internal/obs/recorder"
)

func writeRecorderRun(t *testing.T, dir, name, scale string, shots, errors int64, wall float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := recorder.NewWriter(f)
	h := recorder.NewHeader("hetarch", "fig9", scale, 1, 1, nil)
	if err := w.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(recorder.Batch{
		Name: "fig9", WallSeconds: wall, Shots: shots, Errors: errors, TotalShots: shots,
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBenchNoRegression(t *testing.T) {
	dir := t.TempDir()
	old := mustLoad(t, writeRecorderRun(t, dir, "old.jsonl", "quick", 90000, 900, 0.1))
	// -5% throughput: inside a 20% tolerance.
	new := mustLoad(t, writeRecorderRun(t, dir, "new.jsonl", "quick", 90000, 900, 0.1/0.95))
	rep, err := Compare(old, new, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compared != 2 || rep.Regressions != 0 || rep.ExitCode() != 0 {
		t.Fatalf("unexpected regression: %+v", rep)
	}
}

func TestCompareBenchThroughputRegression(t *testing.T) {
	dir := t.TempDir()
	old := mustLoad(t, writeRecorderRun(t, dir, "old.jsonl", "quick", 90000, 900, 0.1))
	new := mustLoad(t, writeRecorderRun(t, dir, "new.jsonl", "quick", 90000, 900, 0.2)) // -50%
	rep, err := Compare(old, new, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 || rep.ExitCode() != 1 {
		t.Fatalf("expected one regression: %+v", rep)
	}
	for _, f := range rep.Findings {
		if f.Regression != (f.Metric == "throughput") {
			t.Fatalf("only the throughput finding may regress: %+v", f)
		}
	}
}

// TestCompareZeroToleranceFlagsAnyDrop: a tolerance of 0 is taken as
// given, not replaced by a default, so a run 5% slower regresses.
func TestCompareZeroToleranceFlagsAnyDrop(t *testing.T) {
	dir := t.TempDir()
	old := mustLoad(t, writeRecorderRun(t, dir, "old.jsonl", "quick", 90000, 900, 0.1))
	new := mustLoad(t, writeRecorderRun(t, dir, "new.jsonl", "quick", 90000, 900, 0.1/0.95))
	rep, err := Compare(old, new, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 || rep.ExitCode() != 1 {
		t.Fatalf("a 5%% throughput drop at tolerance 0 was not flagged: %+v", rep)
	}
}

func TestCompareRecorderErrorRateRegression(t *testing.T) {
	dir := t.TempDir()
	// 1% error rate vs 5%: Wilson CIs at n=20000 are far apart.
	old := mustLoad(t, writeRecorderRun(t, dir, "old.jsonl", "quick", 20000, 200, 0.5))
	new := mustLoad(t, writeRecorderRun(t, dir, "new.jsonl", "quick", 20000, 1000, 0.5))
	rep, err := Compare(old, new, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Metric == "error-rate" && f.Regression {
			found = true
		}
		if f.Metric == "throughput" && f.Regression {
			t.Fatalf("equal throughput flagged: %+v", f)
		}
	}
	if !found || rep.ExitCode() != 1 {
		t.Fatalf("error-rate regression not flagged: %+v", rep)
	}
	// Same counts within shot noise: no regression.
	newOK := mustLoad(t, writeRecorderRun(t, dir, "new2.jsonl", "quick", 20000, 210, 0.5))
	rep, err = Compare(old, newOK, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("shot-noise shift flagged as regression: %+v", rep)
	}
}

func TestCompareIncomparable(t *testing.T) {
	dir := t.TempDir()
	quick := mustLoad(t, writeRecorderRun(t, dir, "q.jsonl", "quick", 100, 1, 0.1))
	full := mustLoad(t, writeRecorderRun(t, dir, "f.jsonl", "full", 100, 1, 0.1))
	if _, err := Compare(quick, full, 0.2); err == nil {
		t.Fatal("different scales must be incomparable")
	}

	// No shared metric names.
	other := mustLoad(t, writeRecorderRun(t, dir, "o.jsonl", "quick", 100, 1, 0.1))
	other.Throughput = map[string]float64{"table3": 1000}
	other.ErrorRates = map[string]Rate{"table3": {Errors: 1, Shots: 100}}
	mine := mustLoad(t, writeRecorderRun(t, dir, "m.jsonl", "quick", 100, 1, 0.1))
	if _, err := Compare(other, mine, 0.2); err == nil {
		t.Fatal("disjoint metrics must be incomparable")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage")
	os.WriteFile(path, []byte("not json at all"), 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("garbage must not load")
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file must not load")
	}
}

func mustLoad(t *testing.T, path string) *Source {
	t.Helper()
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
