package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetarch/internal/obs/recorder"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
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
	return writeFile(t, dir, name, buf.String())
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeRecorderRun(t, dir, "base.jsonl", "fig9", 0.1)
	same := writeRecorderRun(t, dir, "same.jsonl", "fig9", 0.101)
	slow := writeRecorderRun(t, dir, "slow.jsonl", "fig9", 0.25)
	other := writeRecorderRun(t, dir, "other.jsonl", "table3", 0.1)
	garbage := writeFile(t, dir, "garbage", "not an artifact")

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no regression", []string{base, same}, 0},
		{"throughput regression", []string{base, slow}, 1},
		{"report-only masks regression", []string{"-report-only", base, slow}, 0},
		{"incomparable artifacts", []string{base, other}, 2},
		{"unreadable artifact", []string{base, garbage}, 2},
		{"missing file", []string{base, filepath.Join(dir, "missing")}, 2},
		{"usage: too few args", []string{base}, 2},
		{"usage: bad flag", []string{"-no-such-flag", base, same}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
					tc.args, got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

func TestRunReportMentionsRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeRecorderRun(t, dir, "base.jsonl", "fig9", 0.1)
	slow := writeRecorderRun(t, dir, "slow.jsonl", "fig9", 0.25)
	var stdout, stderr bytes.Buffer
	if got := run([]string{base, slow}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit %d, want 1", got)
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Fatalf("report does not flag the regression:\n%s", stdout.String())
	}
}
