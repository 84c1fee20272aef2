// Package recorder is the run flight recorder: it journals an experiment
// run to a JSONL artifact from which the run can be audited or reproduced —
// the config and seeds that produced it, the toolchain and git revision it
// was built from, per-batch shot/error counts with wall time, and the final
// metrics snapshot.
//
// The artifact is line-oriented so a crashed run still leaves every batch
// written before the crash. Each line is one JSON object discriminated by
// its "type" field:
//
//	{"type":"header", ...}   exactly one, first line
//	{"type":"batch",  ...}   one per completed experiment batch
//	{"type":"final",  ...}   at most one, last line
//
// Unknown types are skipped on read, so future fields and record kinds
// stay backward-compatible with older readers (`hetarch runs diff`).
package recorder

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"hetarch/internal/bench"
	"hetarch/internal/jsonl"
	"hetarch/internal/obs"
	"hetarch/internal/obs/runlog"
)

// Structured-log event (a no-op until the CLI installs a run logger).
var evTornTail = runlog.Event("recorder.torn_tail")

// Header identifies the run: what was asked for, with which seeds, built
// from which source revision — everything needed to regenerate the figure
// the run produced.
type Header struct {
	Type string `json:"type"` // "header"
	// RunID is the ledger run identity (internal/obs/runlog) of the
	// invocation that produced this artifact, linking it back to its
	// ledger envelope. Empty in artifacts predating the run ledger.
	RunID       string   `json:"run_id,omitempty"`
	Tool        string   `json:"tool"`
	Experiment  string   `json:"experiment"`
	Scale       string   `json:"scale"` // "quick" or "full"
	Seed        int64    `json:"seed"`
	Args        []string `json:"args,omitempty"`
	GoVersion   string   `json:"go_version"`
	GitRevision string   `json:"git_revision,omitempty"`
	GitDirty    bool     `json:"git_dirty,omitempty"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	// Workers is the mc engine's worker count for the run (0 in artifacts
	// predating the sharded engine). It never affects results, only
	// throughput, so `runs diff` treats runs at different worker counts as
	// comparable but annotates the difference.
	Workers   int    `json:"workers,omitempty"`
	StartedAt string `json:"started_at"` // RFC3339
}

// Batch is one completed unit of work (one experiment runner in the CLI):
// its wall time and the shot/error counter deltas it produced.
type Batch struct {
	Type        string  `json:"type"` // "batch"
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	Shots       int64   `json:"shots"`
	Errors      int64   `json:"errors"`
	// TotalShots is the cumulative shot count after this batch, so partial
	// artifacts still show absolute progress.
	TotalShots int64 `json:"total_shots"`
}

// Final closes the run: total wall time, the full metrics snapshot, and the
// run error if it failed.
type Final struct {
	Type        string       `json:"type"` // "final"
	WallSeconds float64      `json:"wall_seconds"`
	Err         string       `json:"error,omitempty"`
	Metrics     obs.Snapshot `json:"metrics"`
}

// NewHeader fills a Header with the build/host facts (go version, git
// revision via bench.VCSRevision, GOOS/GOARCH/NumCPU), the effective mc
// worker count, and the start time.
func NewHeader(tool, experiment, scale string, seed int64, workers int, args []string) Header {
	h := Header{
		Type:       "header",
		Tool:       tool,
		Experiment: experiment,
		Scale:      scale,
		Seed:       seed,
		Args:       args,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Workers:    workers,
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	h.GitRevision, h.GitDirty = bench.VCSRevision()
	return h
}

// Writer journals records to an io.Writer, one JSON object per line.
// Methods are safe for concurrent use; each record reaches w in a single
// Write as soon as it is written, so a crash cannot lose completed batches.
type Writer struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

func (w *Writer) write(rec any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(rec)
}

// WriteHeader writes the header record (first line of the artifact).
func (w *Writer) WriteHeader(h Header) error {
	h.Type = "header"
	return w.write(h)
}

// WriteBatch appends a batch record.
func (w *Writer) WriteBatch(b Batch) error {
	b.Type = "batch"
	return w.write(b)
}

// WriteFinal appends the final record.
func (w *Writer) WriteFinal(f Final) error {
	f.Type = "final"
	return w.write(f)
}

// FileWriter journals to a file on disk. A run finalizes its artifact with
// WriteFinal and then Close. The final record, like every other, reaches
// the file in one write, so a reader (`hetarch runs diff`) sees it whole
// or, after a kill mid-write, drops it as a torn tail (Run.Truncated).
type FileWriter struct {
	*Writer
	f *os.File
}

// CreateFile creates (truncating) the artifact at path.
func CreateFile(path string) (*FileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileWriter{Writer: NewWriter(f), f: f}, nil
}

// Close syncs the artifact to disk and closes it, so every record written
// so far, the final one included, is durable before the run ledger
// digests the file. Closing again is a no-op.
func (w *FileWriter) Close() error {
	err := w.f.Sync()
	if errors.Is(err, os.ErrClosed) {
		return nil
	}
	return errors.Join(err, w.f.Close())
}

// Run is a parsed artifact.
type Run struct {
	Header  Header
	Batches []Batch
	Final   *Final

	// Truncated reports that the artifact ended in a partial line — the
	// signature of a process killed mid-write. The partial record is
	// dropped; everything before it is intact.
	Truncated bool
}

// TotalShots sums the batch shot deltas.
func (r *Run) TotalShots() int64 {
	var n int64
	for _, b := range r.Batches {
		n += b.Shots
	}
	return n
}

// TotalErrors sums the batch error deltas.
func (r *Run) TotalErrors() int64 {
	var n int64
	for _, b := range r.Batches {
		n += b.Errors
	}
	return n
}

// Read parses a JSONL artifact. It requires the header to be the first
// record, tolerates a missing final record and a partial (crash-truncated)
// last line — reported via Run.Truncated — and skips record types it does
// not know.
func Read(r io.Reader) (*Run, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	lines, torn := jsonl.Split(data)
	run := &Run{Truncated: len(torn) > 0}
	if run.Truncated {
		runlog.L().Warn(evTornTail, "bytes", len(torn))
	}
	sawHeader := false
	for i, raw := range lines {
		rec := i + 1
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("recorder: record %d: %w", rec, err)
		}
		switch probe.Type {
		case "header":
			if sawHeader {
				return nil, fmt.Errorf("recorder: record %d: duplicate header", rec)
			}
			if err := json.Unmarshal(raw, &run.Header); err != nil {
				return nil, fmt.Errorf("recorder: record %d: %w", rec, err)
			}
			sawHeader = true
		case "batch":
			var b Batch
			if err := json.Unmarshal(raw, &b); err != nil {
				return nil, fmt.Errorf("recorder: record %d: %w", rec, err)
			}
			run.Batches = append(run.Batches, b)
		case "final":
			var f Final
			if err := json.Unmarshal(raw, &f); err != nil {
				return nil, fmt.Errorf("recorder: record %d: %w", rec, err)
			}
			run.Final = &f
		default:
			// Unknown record kind: forward compatibility, skip.
		}
		if !sawHeader {
			return nil, fmt.Errorf("recorder: record %d: first record must be the header", rec)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("recorder: empty artifact")
	}
	return run, nil
}
