// The durable job journal: the daemon's source of truth for what was
// submitted and what became of it.
//
// The file (journal.jsonl inside the jobs data directory) follows the
// repo's append-only line discipline (internal/jsonl, DESIGN.md §11):
// every record is a single newline-terminated line written with one
// write(2) on an O_APPEND descriptor, synced before the state transition
// is considered committed. A process killed mid-append leaves at most one
// torn trailing line, which Replay drops and OpenJournal heals by starting
// the next append on a fresh line boundary.
//
// Two record types:
//
//	{"type":"job.submitted","job":{...}}   the immutable submission: ID,
//	                                       tenant, priority, spec,
//	                                       fingerprint, submit time
//	{"type":"job.state",...}               one per state transition, with
//	                                       the terminal ones carrying the
//	                                       headline metrics and artifact
//	                                       manifest
//
// Replaying the journal therefore reconstructs every job's latest state:
// a job whose last record is non-terminal (queued/running) was in flight
// when the daemon died and is re-enqueued on restart, resuming from its
// per-job mc checkpoint.

package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"hetarch/internal/jsonl"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/runlog"
)

var evTornTail = runlog.Event("jobs.journal_torn_tail")

// JournalName is the journal file inside the jobs data directory.
const JournalName = "journal.jsonl"

// Record is one journal line. Type "job.submitted" carries Job; type
// "job.state" carries ID/State and, on terminal transitions, the outcome
// fields.
type Record struct {
	Type string `json:"type"`

	// Submission fields ("job.submitted").
	Job *Submission `json:"job,omitempty"`

	// Transition fields ("job.state").
	ID        string            `json:"id,omitempty"`
	State     string            `json:"state,omitempty"`
	At        string            `json:"at,omitempty"` // RFC3339Nano
	Error     string            `json:"error,omitempty"`
	ShotsDone int64             `json:"shots_done,omitempty"`
	Metrics   *ledger.Headline  `json:"metrics,omitempty"`
	Artifacts []ledger.Artifact `json:"artifacts,omitempty"`
}

// Submission is the immutable half of a job: everything fixed at POST
// time.
type Submission struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant"`
	Priority    int    `json:"priority,omitempty"`
	Spec        Spec   `json:"spec"`
	Fingerprint string `json:"fingerprint"`
	SubmittedAt string `json:"submitted_at"` // RFC3339Nano
}

// Journal is an open, append-only job journal.
type Journal struct {
	mu   sync.Mutex
	path string
	a    *jsonl.Appender
}

// OpenJournal opens (creating if absent) the journal at path, replays its
// records into per-job histories, and heals an unterminated last line so
// the next append starts on a clean line boundary. The replayed records
// are returned in file order.
func OpenJournal(path string) (*Journal, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("jobs: journal %s: %w", path, err)
	}
	lines, torn := jsonl.Split(data)
	if len(torn) > 0 {
		// Torn mid-append by a kill: the record is lost (its transition
		// never committed); jsonl.Open heals the boundary.
		runlog.L().Warn(evTornTail, "path", path, "bytes", len(torn))
	}
	a, _, err := jsonl.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: journal %s: %w", path, err)
	}
	var records []Record
	for _, raw := range lines {
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			continue // out-of-band corruption: skip, like the ledger reader
		}
		switch r.Type {
		case "job.submitted", "job.state":
			records = append(records, r)
		}
		// Unknown types skipped for forward compatibility.
	}
	return &Journal{path: path, a: a}, records, nil
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Append commits one record: a single newline-terminated write on the
// O_APPEND descriptor, synced to the OS before returning. A state
// transition is durable iff Append returned nil.
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.a == nil {
		return fmt.Errorf("jobs: journal %s: closed", j.path)
	}
	if err := j.a.Append(r); err != nil {
		return fmt.Errorf("jobs: journal append %s: %w", j.path, err)
	}
	if err := j.a.Sync(); err != nil {
		return fmt.Errorf("jobs: journal sync %s: %w", j.path, err)
	}
	return nil
}

// Close releases the file handle. Appended records are already durable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.a == nil {
		return nil
	}
	err := j.a.Close()
	j.a = nil
	return err
}
