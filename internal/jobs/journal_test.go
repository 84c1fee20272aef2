package jobs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSubmission(id string) *Submission {
	return &Submission{
		ID:     id,
		Tenant: "default",
		Spec:   Spec{Experiment: "fig9", Scale: ScaleQuick, Seed: 1}.Normalize(),
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, records, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(records))
	}
	if err := j.Append(Record{Type: "job.submitted", Job: testSubmission("job-a")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: "job.state", ID: "job-a", State: StateRunning, At: now()}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, records, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("replayed %d records, want 2", len(records))
	}
	if records[0].Job == nil || records[0].Job.ID != "job-a" {
		t.Fatalf("first record = %+v, want job-a submission", records[0])
	}
	if records[1].State != StateRunning {
		t.Fatalf("second record state = %q, want running", records[1].State)
	}
}

// A daemon killed mid-append leaves a torn final line. Reopening must drop
// exactly that line, keep everything before it, and heal the boundary so
// the next append starts fresh — the discipline the whole restart-resume
// story rests on.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: "job.submitted", Job: testSubmission("job-a")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: "job.state", ID: "job-a", State: StateRunning, At: now()}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate the kill: a partial record with no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"job.state","id":"job-a","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, records, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	if len(records) != 2 {
		t.Fatalf("replayed %d records over torn tail, want 2 (torn line dropped)", len(records))
	}
	// The healed boundary must make the next append parseable.
	if err := j2.Append(Record{Type: "job.state", ID: "job-a", State: StateDone, At: now()}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, records, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("replayed %d records after heal+append, want 3", len(records))
	}
	if last := records[len(records)-1]; last.State != StateDone {
		t.Fatalf("last record state = %q, want done", last.State)
	}
}

// A complete final line without its newline (torn between write and sync
// of the separator — impossible with single-write records, but cheap to
// tolerate) is still a valid record and must not be dropped.
func TestJournalCompleteUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Type: "job.submitted", Job: testSubmission("job-a")})
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimSuffix(string(data), "\n")
	if err := os.WriteFile(path, []byte(trimmed), 0o644); err != nil {
		t.Fatal(err)
	}

	_, records, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("replayed %d records, want the unterminated-but-valid line kept", len(records))
	}
}

// The next append after an unterminated-but-valid last record must start
// on a fresh line; otherwise the two records merge into one unparseable
// line, both are skipped, and a restarted daemon forgets the job.
func TestJournalUnterminatedTailThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: "job.submitted", Job: testSubmission("job-a")}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.TrimSuffix(string(data), "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Type: "job.state", ID: "job-a", State: StateRunning, At: now()}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, records, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("replayed %d records, want 2 (submission + state)", len(records))
	}
	if records[0].Job == nil || records[0].Job.ID != "job-a" || records[1].State != StateRunning {
		t.Fatalf("replayed %+v, %+v; want job-a submitted, then running", records[0], records[1])
	}
}

// Garbage interior lines (out-of-band corruption) are skipped, not fatal —
// the same contract as the run ledger's reader.
func TestJournalSkipsCorruptInteriorLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Type: "job.submitted", Job: testSubmission("job-a")})
	j.Close()

	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("not json at all\n")
	f.Close()
	j2, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(Record{Type: "job.state", ID: "job-a", State: StateDone, At: now()})
	j2.Close()

	_, records, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("replayed %d records, want 2 (corrupt line skipped)", len(records))
	}
}
