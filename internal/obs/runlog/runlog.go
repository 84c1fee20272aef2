// Package runlog provides run identity and structured event logging for
// every hetarch invocation: the two halves of the provenance layer that
// internal/obs/ledger persists.
//
// # Run IDs
//
// NewID mints a ULID-style identifier — 26 Crockford-base32 characters
// encoding a 48-bit millisecond timestamp followed by 80 bits of entropy.
// Unlike a stock ULID the entropy is not random: it is derived
// deterministically (splitmix64) from the run's base seed and the
// timestamp, so the ID is a pure function of (time, seed) and tests can
// pin it exactly. IDs sort lexicographically by creation time, which is
// what makes `hetarch runs list` chronological for free.
//
// # Event log
//
// L() returns the process-wide *slog.Logger the engines and the CLI emit
// structured events to. It defaults to a no-op logger, so library code can
// log unconditionally without spamming tests or embedding callers; the CLI
// installs a real logger (text to stderr by default, JSON under
// `-log-format json`) via Set, stamped with the run ID.
//
// Event names follow the metric registry's pkg.snake_case convention
// ("run.start", "mc.shard_fault", "ledger.append") and are declared
// through Event(), which records them in a process-wide registry swept by
// the obs hygiene test — the same discipline that keeps metric names
// collision-free.
package runlog

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// crockford is the Crockford base32 alphabet (no i, l, o, u), lowercased
// for filesystem- and shell-friendliness.
const crockford = "0123456789abcdefghjkmnpqrstvwxyz"

// IDLen is the length of a run ID: 26 base32 characters = 130 bits, of
// which the top two are always zero (48-bit timestamp + 80-bit entropy).
const IDLen = 26

// splitmix64 is the SplitMix64 output mix — the same stream splitter the
// mc engine uses for shard seeds, reused here so the entropy half of an ID
// is decorrelated across adjacent seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewID mints the run ID for a run started at t with the given base seed.
// The result is deterministic: equal (t, seed) pairs yield equal IDs, so a
// test that pins both pins the ID.
func NewID(t time.Time, seed int64) string {
	ms := uint64(t.UnixMilli()) & (1<<48 - 1)
	e1 := splitmix64(uint64(seed) ^ ms*0x9e3779b97f4a7c15)
	e2 := splitmix64(e1 + uint64(seed))

	// 128-bit big-endian value: 48-bit ms, 64 bits of e1, low 16 of e2.
	hi := ms<<16 | e1>>48
	lo := e1<<16 | e2&0xffff

	var out [IDLen]byte
	for i := IDLen - 1; i >= 0; i-- {
		out[i] = crockford[lo&31]
		lo = lo>>5 | hi<<59
		hi >>= 5
	}
	return string(out[:])
}

// MintID is NewID at the current wall clock.
func MintID(seed int64) string { return NewID(time.Now(), seed) }

// IDTime recovers the millisecond timestamp encoded in a run ID.
func IDTime(id string) (time.Time, error) {
	if len(id) != IDLen {
		return time.Time{}, fmt.Errorf("runlog: run ID %q has length %d, want %d", id, len(id), IDLen)
	}
	var hi, lo uint64
	for i := 0; i < IDLen; i++ {
		d := strings.IndexByte(crockford, id[i])
		if d < 0 {
			return time.Time{}, fmt.Errorf("runlog: run ID %q has invalid character %q", id, id[i])
		}
		hi = hi<<5 | lo>>59
		lo = lo<<5 | uint64(d)
	}
	return time.UnixMilli(int64(hi >> 16)).UTC(), nil
}

// ValidID reports whether id parses as a run ID.
func ValidID(id string) bool {
	_, err := IDTime(id)
	return err == nil
}

// --- event-name registry ---

var (
	evMu    sync.Mutex
	evNames = map[string]bool{}
)

// Event declares a structured-log event name, recording it in the
// process-wide registry the obs hygiene test sweeps (pkg.snake_case, no
// collisions with metric names), and returns the name so packages can
// declare events as initialized vars:
//
//	var evShardFault = runlog.Event("mc.shard_fault")
func Event(name string) string {
	evMu.Lock()
	defer evMu.Unlock()
	evNames[name] = true
	return name
}

// EventNames returns every declared event name, sorted.
func EventNames() []string {
	evMu.Lock()
	defer evMu.Unlock()
	out := make([]string, 0, len(evNames))
	for n := range evNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Canonical CLI-level event vocabulary. Declared here (rather than inside
// package main) so the hygiene test can sweep the full event namespace;
// the run.* prefix is reserved for the invocation lifecycle.
var (
	EvRunStart         = Event("run.start")
	EvRunDone          = Event("run.done")
	EvRunInterrupted   = Event("run.interrupted")
	EvExperimentDone   = Event("run.experiment_done")
	EvCheckpointResume = Event("run.checkpoint_resume")
	EvTraceWritten     = Event("run.trace_written")
	EvLedgerDisabled   = Event("run.ledger_disabled")
)

// --- process-wide logger ---

// discardHandler is a no-op slog.Handler (slog.DiscardHandler arrived in
// Go 1.24; this module targets 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

var current atomic.Pointer[slog.Logger]

func init() {
	current.Store(slog.New(discardHandler{}))
}

// L returns the process-wide run logger. Until Set installs one it is a
// no-op, so instrumented packages log unconditionally at zero cost to
// tests and library embedders.
func L() *slog.Logger { return current.Load() }

// Set installs l as the process-wide run logger; nil restores the no-op
// logger. Like mc.WithCheckpoint, call it at run setup, not mid-run.
func Set(l *slog.Logger) {
	if l == nil {
		l = slog.New(discardHandler{})
	}
	current.Store(l)
}

// Formats accepted by New.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// New builds a run logger writing structured events to w — logfmt-style
// text for humans, one JSON object per line for machines — stamped with
// the run ID on every record.
func New(w io.Writer, format, runID string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	var h slog.Handler
	switch format {
	case "", FormatText:
		h = slog.NewTextHandler(w, opts)
	case FormatJSON:
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("runlog: unknown log format %q (want %q or %q)", format, FormatText, FormatJSON)
	}
	l := slog.New(h)
	if runID != "" {
		l = l.With("run_id", runID)
	}
	return l, nil
}
