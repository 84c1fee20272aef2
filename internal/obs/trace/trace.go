// Package trace is the engine flight profiler: a low-overhead,
// fixed-capacity buffer of typed phase events (shard executed, merge,
// checkpoint hit, ...) stamped with worker lanes and monotonic
// timestamps, exportable as Chrome Trace Event Format JSON that opens
// directly in Perfetto or chrome://tracing.
//
// The collector is built for hot paths that must stay deterministic:
//
//   - Recording never blocks and never allocates on the caller's goroutine
//     beyond the event value itself: a slot is claimed with one atomic add
//     into a preallocated buffer, and events past capacity are counted as
//     dropped rather than grown into.
//   - Sampling is deterministic, not statistical: Sampled(index) keeps
//     every Nth shard by *index*, so which units of work are
//     traced is a pure function of the run's decomposition — identical
//     across worker counts and repeat runs — and tracing can never perturb
//     the RNG streams that make results bit-identical.
//   - When disabled (the default), every hook is a single atomic load.
//
// The package is deliberately decoupled from the obs metric registry:
// metrics aggregate (histograms of shard wall time), traces itemize (THIS
// shard, on THIS worker, at THIS time). The instrumented packages feed
// both from the same timestamps.
package trace

import (
	"sync/atomic"
	"time"
)

// Event phase kinds, mirroring the Chrome Trace Event "ph" field values
// the exporter emits.
const (
	PhaseComplete = 'X' // a span: TS..TS+Dur
	PhaseInstant  = 'i' // a point in time
)

// Event is one recorded occurrence. Proc and Lane place the event on a
// Perfetto track: Proc groups lanes into a named process row ("mc",
// "run"), Lane is the worker goroutine index within it.
type Event struct {
	Name  string // slice label, e.g. "shard 42"
	Cat   string // dot-separated category, e.g. "mc.shard"
	Proc  string // process grouping: the owning engine
	Lane  int    // worker lane (tid); 0 for engine-global events
	Phase byte   // PhaseComplete or PhaseInstant
	TS    int64  // start, nanoseconds since Enable
	Dur   int64  // duration in nanoseconds (PhaseComplete only)
	Index int64  // shard index; rendered as args.index when >= 0

	// Attrs carries extra numeric arguments (rendered under args).
	// Optional; nil for most events.
	Attrs map[string]int64
}

// Defaults for Enable. 1<<16 events is ~6 MB of buffer — minutes of
// sampled shard traffic — and sampling 1-in-8 keeps the per-shard cost of
// tracing far below one shard of work (the -trace-out acceptance bar is
// <5% throughput impact on quick-scale fig9).
const (
	DefaultCapacity = 1 << 16
	DefaultSampleN  = 8
)

// buffer is the preallocated event storage. Slots are claimed by an
// atomic cursor and published individually via ready flags, so a reader
// snapshotting mid-run never observes a half-written event.
type buffer struct {
	events []Event
	ready  []atomic.Bool
}

// Collector accumulates events. The zero value is a disabled collector;
// Enable arms it. Emit/Sampled/Now are safe for concurrent use with each
// other and with snapshot reads; Enable and Disable must not race a run
// (arm the collector before dispatching work, like mc.WithCheckpoint).
type Collector struct {
	enabled atomic.Bool
	sampleN atomic.Int64
	next    atomic.Int64
	dropped atomic.Int64
	buf     atomic.Pointer[buffer]
	base    atomic.Pointer[time.Time]
	runID   atomic.Pointer[string]
}

// NewCollector returns a disabled collector.
func NewCollector() *Collector { return &Collector{} }

// Enable arms the collector with a fresh buffer of the given capacity,
// keeping every sampleN-th indexed unit of work (1 keeps all). Values
// <= 0 select the defaults. Enabling resets previously recorded events
// and restarts the trace clock.
func (c *Collector) Enable(capacity, sampleN int) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if sampleN <= 0 {
		sampleN = DefaultSampleN
	}
	now := time.Now()
	c.enabled.Store(false) // stop emitters while the buffer swaps
	c.buf.Store(&buffer{events: make([]Event, capacity), ready: make([]atomic.Bool, capacity)})
	c.next.Store(0)
	c.dropped.Store(0)
	c.sampleN.Store(int64(sampleN))
	c.base.Store(&now)
	c.enabled.Store(true)
}

// SetRunID stamps the collector with the producing run's ledger identity
// (internal/obs/runlog); the Chrome export carries it in otherData so a
// trace file is traceable back to its run envelope. Set it at run setup,
// alongside Enable.
func (c *Collector) SetRunID(id string) { c.runID.Store(&id) }

// RunID returns the stamped run ID ("" when never set).
func (c *Collector) RunID() string {
	if p := c.runID.Load(); p != nil {
		return *p
	}
	return ""
}

// Disable stops recording. Events recorded so far remain readable.
func (c *Collector) Disable() { c.enabled.Store(false) }

// Enabled reports whether the collector is recording.
func (c *Collector) Enabled() bool { return c.enabled.Load() }

// Sampled reports whether the unit of work with the given index should be
// traced: the collector is enabled and index falls on the deterministic
// 1-in-N stride. Index-based sampling keeps trace contents reproducible
// and scheduling-independent.
func (c *Collector) Sampled(index int) bool {
	if !c.enabled.Load() {
		return false
	}
	n := c.sampleN.Load()
	return n <= 1 || int64(index)%n == 0
}

// Now returns nanoseconds since Enable (0 when never enabled).
func (c *Collector) Now() int64 {
	b := c.base.Load()
	if b == nil {
		return 0
	}
	return time.Since(*b).Nanoseconds()
}

// Emit records e if the collector is enabled and the buffer has room;
// otherwise the event is counted as dropped. Emit never blocks.
func (c *Collector) Emit(e Event) {
	if !c.enabled.Load() {
		return
	}
	b := c.buf.Load()
	if b == nil {
		return
	}
	i := c.next.Add(1) - 1
	if i >= int64(len(b.events)) {
		c.dropped.Add(1)
		return
	}
	b.events[i] = e
	b.ready[i].Store(true)
}

// Dropped returns the number of events lost to a full buffer.
func (c *Collector) Dropped() int64 { return c.dropped.Load() }

// Len returns the number of events recorded so far.
func (c *Collector) Len() int {
	b := c.buf.Load()
	if b == nil {
		return 0
	}
	n := c.next.Load()
	if n > int64(len(b.events)) {
		n = int64(len(b.events))
	}
	return int(n)
}

// Events snapshots the recorded events. Safe to call while a run is
// emitting: slots still being written are skipped, so every returned
// event is complete.
func (c *Collector) Events() []Event {
	b := c.buf.Load()
	if b == nil {
		return nil
	}
	n := c.next.Load()
	if n > int64(len(b.events)) {
		n = int64(len(b.events))
	}
	out := make([]Event, 0, n)
	for i := int64(0); i < n; i++ {
		if b.ready[i].Load() {
			out = append(out, b.events[i])
		}
	}
	return out
}

// Default is the process-wide collector the instrumented engines emit to,
// armed by `hetarch -trace-out`.
var Default = NewCollector()

// Enabled reports whether the default collector is recording.
func Enabled() bool { return Default.Enabled() }

// Sampled reports whether the default collector traces the given index.
func Sampled(index int) bool { return Default.Sampled(index) }

// Now returns the default collector's trace clock.
func Now() int64 { return Default.Now() }

// Emit records an event on the default collector.
func Emit(e Event) { Default.Emit(e) }

// noSpan is the end func of a span opened while the collector is disabled.
func noSpan() {}

// Span opens an unsampled complete event on lane 0 of proc's track of the
// default collector and returns the func that ends it. It is for coarse
// units that every trace should carry, such as one experiment or one table
// row, next to the index-sampled shard events. While the collector is
// disabled it costs one atomic load and allocates nothing.
func Span(proc, cat, name string) (end func()) {
	if !Default.Enabled() {
		return noSpan
	}
	ts0 := Default.Now()
	return func() {
		Default.Emit(Event{Name: name, Cat: cat, Proc: proc, Phase: PhaseComplete,
			TS: ts0, Dur: Default.Now() - ts0, Index: -1})
	}
}
