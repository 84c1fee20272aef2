// Package ledger is the durable run journal behind every hetarch
// invocation: one JSON envelope per run, appended to a single
// crash-tolerant JSONL file, recording the run's identity (run ID, args,
// seed, workers, git revision), its outcome (start/end, exit status,
// headline metrics with Wilson CIs), and a manifest of every artifact the
// run wrote — flight-recorder journal, checkpoint, Chrome trace — each with
// a SHA-256 digest so provenance can be verified after the fact (`hetarch
// runs show`).
//
// The file follows the append-only line discipline of internal/jsonl:
// every envelope is one newline-terminated line written with a single
// write(2) on an O_APPEND descriptor and synced before Append returns, so
// concurrent appends from separate processes interleave at line
// granularity and never tear each other. A process killed mid-append
// leaves at most one torn trailing line, which readers drop (reported via
// Log.Truncated) and Open heals by starting the next append on a fresh
// line boundary.
//
// The ledger is strictly results-neutral: it is written after the run's
// stdout is complete and only ever reads the artifacts the run already
// produced.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hetarch/internal/jsonl"
	"hetarch/internal/obs"
	"hetarch/internal/obs/runlog"
	"hetarch/internal/obs/stats"
)

// Ledger telemetry, visible in the -metrics snapshot: appends that reached
// the OS durably, appends that failed, and envelopes pruned by gc.
var (
	appendsOK    = obs.C("ledger.appends")
	appendErrors = obs.C("ledger.append_errors")
	runsPruned   = obs.C("ledger.runs_pruned")
)

// Structured-log events.
var (
	evAppend      = runlog.Event("ledger.append")
	evAppendError = runlog.Event("ledger.append_error")
	evTornTail    = runlog.Event("ledger.torn_tail")
	evPruned      = runlog.Event("ledger.pruned")
)

// FileName is the ledger file inside the ledger directory.
const FileName = "ledger.jsonl"

// EnvDir is the environment variable overriding the default ledger
// directory (tests point it at a scratch dir; "off" disables the ledger).
const EnvDir = "HETARCH_LEDGER_DIR"

// Off is the -ledger-dir / HETARCH_LEDGER_DIR value that disables the
// ledger entirely.
const Off = "off"

// DefaultDir resolves the ledger directory when the caller did not choose
// one: $HETARCH_LEDGER_DIR if set, else ~/.hetarch. The second return is
// false when the ledger is disabled (explicitly, or because no home
// directory can be resolved).
func DefaultDir() (string, bool) {
	if v := os.Getenv(EnvDir); v != "" {
		if v == Off {
			return "", false
		}
		return v, true
	}
	home, err := os.UserHomeDir()
	if err != nil || home == "" {
		return "", false
	}
	return filepath.Join(home, ".hetarch"), true
}

// Artifact is one file a run wrote, with enough to find and verify it.
type Artifact struct {
	// Kind is the producer: "recorder", "checkpoint" or "trace". Older
	// ledgers also hold "output" (a table the retired hetarchd job service
	// wrote) and "cache" (an entry of the retired on-disk characterization
	// cache, which also carried a "key" field that decoding now ignores;
	// `runs gc` keeps such lines byte for byte). Only `runs diff` branches
	// on Kind, to find the recorder; every kind lists and verifies alike.
	Kind string `json:"kind"`
	// Path is absolute, so the ledger, which every directory shares,
	// finds the file from any working directory. Envelopes written before
	// FileArtifact resolved it keep the path as it was typed, relative to
	// that run's working directory.
	Path   string `json:"path"`
	SHA256 string `json:"sha256,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Headline is the run's final scoreboard: pooled shots and logical errors
// with throughput and the Wilson 95% CI on the pooled error rate — the
// same statistics the tables print, folded to one line for `runs list`.
type Headline struct {
	Shots         int64   `json:"shots"`
	LogicalErrors int64   `json:"logical_errors"`
	ShotsPerSec   float64 `json:"shots_per_sec,omitempty"`
	ErrorRate     float64 `json:"error_rate,omitempty"`
	ErrorRateLo   float64 `json:"error_rate_lo,omitempty"`
	ErrorRateHi   float64 `json:"error_rate_hi,omitempty"`
}

// NewHeadline folds pooled counts and wall time into a Headline,
// attaching the Wilson 95% CI when any shots were fired.
func NewHeadline(shots, logicalErrors int64, wallSeconds float64) *Headline {
	h := &Headline{Shots: shots, LogicalErrors: logicalErrors}
	if wallSeconds > 0 && shots > 0 {
		h.ShotsPerSec = float64(shots) / wallSeconds
	}
	if shots > 0 {
		h.ErrorRate = float64(logicalErrors) / float64(shots)
		ci := stats.BinomialCI(logicalErrors, shots, 0.95)
		h.ErrorRateLo, h.ErrorRateHi = ci.Lo, ci.Hi
	}
	return h
}

// Run statuses.
const (
	StatusOK          = "ok"
	StatusError       = "error"
	StatusInterrupted = "interrupted" // SIGINT/SIGTERM; checkpoint, if any, flushed
)

// Envelope is one run's ledger record.
type Envelope struct {
	Type        string   `json:"type"` // "run"
	RunID       string   `json:"run_id"`
	Tool        string   `json:"tool"`
	Experiment  string   `json:"experiment,omitempty"`
	Scale       string   `json:"scale,omitempty"`
	Seed        int64    `json:"seed"`
	Shots       int      `json:"shots,omitempty"` // CLI -shots override; 0 = scale default
	Workers     int      `json:"workers,omitempty"`
	Args        []string `json:"args,omitempty"`
	GoVersion   string   `json:"go_version,omitempty"`
	GitRevision string   `json:"git_revision,omitempty"`
	GitDirty    bool     `json:"git_dirty,omitempty"`
	StartedAt   string   `json:"started_at"` // RFC3339Nano
	EndedAt     string   `json:"ended_at,omitempty"`
	WallSeconds float64  `json:"wall_seconds,omitempty"`
	Status      string   `json:"status"`
	Error       string   `json:"error,omitempty"`
	// ResumedFrom is the run ID of the interrupted run whose checkpoint
	// this run resumed, when they differ.
	ResumedFrom string     `json:"resumed_from,omitempty"`
	Metrics     *Headline  `json:"metrics,omitempty"`
	Artifacts   []Artifact `json:"artifacts,omitempty"`
}

// Ledger is an open, append-only run journal. Append is safe for
// concurrent use within a process (mutex) and across processes (O_APPEND
// single-write line discipline).
type Ledger struct {
	mu   sync.Mutex
	path string
	a    *jsonl.Appender
}

// Open creates the ledger directory if needed and opens dir/ledger.jsonl
// for appending. If the file ends in a torn line (a process killed
// mid-append), a newline is first appended so the next envelope starts on
// a clean boundary — the torn record itself stays dropped-by-readers.
func Open(dir string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", dir, err)
	}
	path := filepath.Join(dir, FileName)
	a, healed, err := jsonl.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", path, err)
	}
	if healed {
		runlog.L().Warn(evTornTail, "path", path)
	}
	return &Ledger{path: path, a: a}, nil
}

// Path returns the ledger file path.
func (l *Ledger) Path() string { return l.path }

// Append journals one envelope: a single newline-terminated write on the
// O_APPEND descriptor, synced to the OS before returning, so two
// processes appending concurrently interleave whole lines and a kill
// after Append cannot lose the record.
func (l *Ledger) Append(e Envelope) error {
	e.Type = "run"
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.a.Append(e); err != nil {
		appendErrors.Inc()
		runlog.L().Warn(evAppendError, "path", l.path, "err", err.Error())
		return fmt.Errorf("ledger: append to %s: %w", l.path, err)
	}
	if err := l.a.Sync(); err != nil {
		appendErrors.Inc()
		return fmt.Errorf("ledger: sync %s: %w", l.path, err)
	}
	appendsOK.Inc()
	runlog.L().Info(evAppend, "path", l.path, "ledger_run_id", e.RunID, "status", e.Status, "artifacts", len(e.Artifacts))
	return nil
}

// Close releases the file handle. Appended records are already durable.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.a.Close()
}

// Log is a parsed ledger.
type Log struct {
	Envelopes []Envelope
	// Truncated reports a torn trailing line (process killed mid-append);
	// the partial record is dropped, everything before it is intact.
	Truncated bool
	// Skipped counts interior lines that did not parse as JSON. Under the
	// line discipline these should not occur; a nonzero count means the
	// file was edited or corrupted out-of-band.
	Skipped int
}

// ReadFile parses the ledger at path, tolerating a torn tail and skipping
// record types (and corrupt interior lines) it does not understand. A
// missing file is an error; callers that treat it as "no runs yet" check
// errors.Is(err, fs.ErrNotExist).
func ReadFile(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return parse(data), nil
}

func parse(data []byte) *Log {
	lines, torn := jsonl.Split(data)
	lg := &Log{Truncated: len(torn) > 0}
	for _, raw := range lines {
		e, isRun, err := decodeRun(raw)
		switch {
		case err != nil:
			lg.Skipped++
		case isRun:
			lg.Envelopes = append(lg.Envelopes, e)
		}
	}
	return lg
}

// decodeRun decodes one ledger line. isRun is false for record types
// other than "run", which readers skip for forward compatibility; err is
// set for a line that is not JSON or not a valid envelope.
func decodeRun(raw []byte) (e Envelope, isRun bool, err error) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return e, false, err
	}
	if probe.Type != "run" {
		return e, false, nil
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		return e, false, err
	}
	return e, true, nil
}

// Find resolves a run ID or unique ID prefix to its envelope. When the
// same full ID appears more than once the latest envelope wins.
func (lg *Log) Find(idPrefix string) (*Envelope, error) {
	if idPrefix == "" {
		return nil, errors.New("ledger: empty run ID")
	}
	var match *Envelope
	matchedIDs := map[string]bool{}
	for i := range lg.Envelopes {
		e := &lg.Envelopes[i]
		if e.RunID == idPrefix {
			match = e // exact: latest occurrence wins
			matchedIDs = map[string]bool{idPrefix: true}
			continue
		}
		if len(matchedIDs) == 1 && matchedIDs[idPrefix] {
			continue // already locked onto an exact match
		}
		if strings.HasPrefix(e.RunID, idPrefix) {
			matchedIDs[e.RunID] = true
			match = e
		}
	}
	switch len(matchedIDs) {
	case 0:
		return nil, fmt.Errorf("ledger: no run matching %q", idPrefix)
	case 1:
		return match, nil
	default:
		ids := make([]string, 0, len(matchedIDs))
		for id := range matchedIDs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return nil, fmt.Errorf("ledger: run ID prefix %q is ambiguous: %s", idPrefix, strings.Join(ids, ", "))
	}
}

// HashFile computes the hex SHA-256 and size of the file at path.
func HashFile(path string) (sum string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// FileArtifact digests the file at path into an Artifact of the given
// kind, recording path as an absolute path. On I/O failure the artifact is
// still returned (kind and path filled) so the manifest records that the
// file was written, alongside the error.
func FileArtifact(kind, path string) (Artifact, error) {
	a := Artifact{Kind: kind, Path: path}
	abs, err := filepath.Abs(path)
	if err != nil {
		return a, err
	}
	a.Path = abs
	sum, size, err := HashFile(abs)
	if err != nil {
		return a, err
	}
	a.SHA256, a.Bytes = sum, size
	return a, nil
}

// Verification outcomes.
const (
	VerifyOK       = "ok"
	VerifyMissing  = "missing"
	VerifyMismatch = "mismatch"
	VerifySkipped  = "skipped" // no digest recorded
)

// VerifyResult is one artifact's verification outcome.
type VerifyResult struct {
	Artifact Artifact
	Status   string
	Detail   string
}

// Verify recomputes every artifact digest in the envelope's manifest. The
// second return counts artifacts that failed (missing or mismatched) — a
// run verifies clean iff it is zero.
func (e *Envelope) Verify() (results []VerifyResult, bad int) {
	for _, a := range e.Artifacts {
		r := VerifyResult{Artifact: a}
		sum, size, err := HashFile(a.Path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			r.Status, r.Detail = VerifyMissing, "file is gone"
			bad++
		case err != nil:
			r.Status, r.Detail = VerifyMissing, err.Error()
			bad++
		case a.SHA256 == "":
			r.Status, r.Detail = VerifySkipped, "no digest recorded"
		case sum != a.SHA256:
			r.Status = VerifyMismatch
			r.Detail = fmt.Sprintf("sha256 %.12s… != recorded %.12s… (%d bytes now, %d recorded)", sum, a.SHA256, size, a.Bytes)
			bad++
		default:
			r.Status = VerifyOK
		}
		results = append(results, r)
	}
	return results, bad
}

// gone reports whether an envelope's artifacts have all vanished — the gc
// criterion. Envelopes with an empty manifest are never gone (there is
// nothing to go stale).
func gone(e *Envelope) bool {
	if len(e.Artifacts) == 0 {
		return false
	}
	for _, a := range e.Artifacts {
		if _, err := os.Stat(a.Path); err == nil {
			return false
		}
	}
	return true
}

// GC prunes envelopes whose artifacts are all gone, rewriting the ledger
// with jsonl.WriteFile. Every other line is copied byte for byte — kept
// envelopes, record types and envelope fields this build does not know,
// lines it cannot parse — so gc never erases what another version of the
// tool wrote; only a torn tail and blank lines are dropped. With dryRun the file is left
// untouched and the partition is merely reported. GC is not safe against
// a concurrent Append from another process; run it while the ledger is
// quiet.
func GC(path string, dryRun bool) (kept, pruned []Envelope, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}
	lines, _ := jsonl.Split(data)
	var out []byte
	for _, raw := range lines {
		if e, isRun, err := decodeRun(raw); err == nil && isRun {
			if gone(&e) {
				pruned = append(pruned, e)
				continue
			}
			kept = append(kept, e)
		}
		out = append(out, raw...)
		out = append(out, '\n')
	}
	if dryRun || len(pruned) == 0 {
		return kept, pruned, nil
	}
	if err := jsonl.WriteFile(path, out); err != nil {
		return nil, nil, fmt.Errorf("ledger: gc: %w", err)
	}
	runsPruned.Add(int64(len(pruned)))
	runlog.L().Info(evPruned, "path", path, "pruned", len(pruned), "kept", len(kept))
	return kept, pruned, nil
}
