// Package cache is the persistent, content-addressed characterization
// store behind the DSE engine: it makes the paper's cell-once methodology
// (Section 4 — characterize each standard cell by density-matrix simulation
// once, then compose channels) durable across processes, so a warm
// `hetarch -dse -cache-dir` run skips device-level simulation entirely.
//
// Entries are addressed by a key that folds in everything the result
// depends on — cell topology, every device parameter (canonically
// serialized via densmat.CanonicalFloat), and the characterization code
// version — so a change to any of them makes old entries unreachable
// (a cold cache) rather than serving stale physics. On disk each entry is
// a versioned JSON envelope; an entry that exists but cannot be trusted
// (corrupt JSON, foreign format, version or key mismatch) is refused with
// a hard error in the same spirit as the mc checkpoint guards, never
// silently re-simulated over.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"hetarch/internal/cell"
	"hetarch/internal/jsonl"
	"hetarch/internal/obs"
	"hetarch/internal/obs/trace"
)

// traceMark drops an instant event on the dse.cache track when the flight
// profiler is armed, so cache traffic is visible inline with the point
// evaluations it serves.
func traceMark(name string) {
	if trace.Enabled() {
		trace.Emit(trace.Event{
			Name: name, Cat: "dse.cache", Proc: "dse.cache",
			Phase: trace.PhaseInstant, TS: trace.Now(), Index: -1,
		})
	}
}

// Store telemetry, visible in the -metrics snapshot: hits are Loads served
// from disk, misses are Loads that found no entry, writes are Stores that
// durably persisted a new entry.
var (
	cacheHits   = obs.C("dse.cache_hits")
	cacheMisses = obs.C("dse.cache_misses")
	cacheWrites = obs.C("dse.cache_writes")
)

// Format identifies the on-disk envelope schema. A Format change means old
// files are structurally unreadable and must be refused, not migrated.
const Format = "hetarch-charcache/1"

// Key returns the canonical content address of a cell's characterization:
// a hex SHA-256 over the characterization code version and the cell's full
// physical fingerprint. Two cells with equal keys have bit-identical
// characterizations; any change to topology, device parameters, or
// characterization code yields a fresh key.
func Key(c *cell.Cell) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s", cell.CharacterizationVersion, cell.Fingerprint(c))
	return hex.EncodeToString(h.Sum(nil))
}

// entry is the on-disk JSON envelope. Key is stored verbatim so Load can
// detect a file that was renamed or written under a different address.
// RunID records which invocation wrote the entry (provenance only — it
// never participates in trust checks, since a cached characterization is
// valid regardless of which run computed it).
type entry struct {
	Format           string                 `json:"format"`
	Version          string                 `json:"version"`
	Key              string                 `json:"key"`
	RunID            string                 `json:"run_id,omitempty"`
	Characterization *cell.Characterization `json:"characterization"`
}

// Dir is a CharacterizationStore over a cache directory: one JSON file per
// entry, named by the SHA-256 of the caller's key so arbitrary key strings
// are filesystem-safe. Dir is safe for concurrent use; writes go through a
// temp-file rename so readers never observe a torn entry.
type Dir struct {
	dir   string
	runID string
}

// Open creates the cache directory if needed and returns the store.
func Open(dir string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dse/cache: open %s: %w", dir, err)
	}
	return &Dir{dir: dir}, nil
}

// Path returns the directory backing the store.
func (d *Dir) Path() string { return d.dir }

// SetRunID stamps subsequent Stores with the producing run's ledger
// identity (internal/obs/runlog). Call it at run setup, before the sweep
// dispatches work.
func (d *Dir) SetRunID(id string) { d.runID = id }

func (d *Dir) file(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".json")
}

// EntryPath returns the on-disk file backing the given key, whether or not
// an entry exists there yet — the ledger uses it to digest cache artifacts
// touched by a run.
func (d *Dir) EntryPath(key string) string { return d.file(key) }

// Load implements core.CharacterizationStore. A missing file is a plain
// miss; a file that cannot be parsed, carries a foreign format or
// characterization version, or stores a different key is refused with an
// error telling the operator to delete it — the cache never guesses about
// an untrustworthy entry.
func (d *Dir) Load(key string) (*cell.Characterization, bool, error) {
	path := d.file(key)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		cacheMisses.Inc()
		traceMark("cache miss")
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("dse/cache: read %s: %w", path, err)
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false, fmt.Errorf("dse/cache: %s is corrupt (%v); delete it to re-characterize", path, err)
	}
	if e.Format != Format {
		return nil, false, fmt.Errorf("dse/cache: %s has format %q, want %q; delete it to re-characterize", path, e.Format, Format)
	}
	if e.Version != cell.CharacterizationVersion {
		return nil, false, fmt.Errorf("dse/cache: %s was written by characterization version %q, this binary is %q; delete it to re-characterize", path, e.Version, cell.CharacterizationVersion)
	}
	if e.Key != key {
		return nil, false, fmt.Errorf("dse/cache: %s stores key %q, expected %q; delete it to re-characterize", path, e.Key, key)
	}
	if e.Characterization == nil {
		return nil, false, fmt.Errorf("dse/cache: %s has no characterization payload; delete it to re-characterize", path)
	}
	cacheHits.Inc()
	traceMark("cache hit")
	return e.Characterization, true, nil
}

// Store implements core.CharacterizationStore: it marshals the envelope and
// writes it with jsonl.WriteFile, so a crash mid-write leaves at worst a
// stray .tmp file, never a torn or empty entry.
func (d *Dir) Store(key string, c *cell.Characterization) error {
	data, err := json.MarshalIndent(entry{
		Format:           Format,
		Version:          cell.CharacterizationVersion,
		Key:              key,
		RunID:            d.runID,
		Characterization: c,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("dse/cache: encode %q: %w", key, err)
	}
	path := d.file(key)
	if err := jsonl.WriteFile(path, append(data, '\n')); err != nil {
		return fmt.Errorf("dse/cache: write %s: %w", path, err)
	}
	cacheWrites.Inc()
	traceMark("cache write")
	return nil
}

// Len reports the number of entries in the cache directory.
func (d *Dir) Len() (int, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, fmt.Errorf("dse/cache: %w", err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}
