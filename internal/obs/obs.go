// Package obs is the repo's zero-dependency observability substrate:
// atomic counters, float gauges, lock-free exponential histograms, a named
// registry with deterministic snapshots, and a progress heartbeat.
//
// The paper's central claim is a simulation-cost hierarchy (cells are
// density-matrix simulated once, channels and modules reuse them); this
// package is how the reproduction measures where its own cost goes. Hot
// paths (Monte Carlo loops, the event scheduler, decoder invocations, the
// characterization cache) update counters via single atomic adds — cheap
// enough to leave on permanently. Timelines (which shard ran where, how
// long each table row took) are the flight profiler's job, in obs/trace.
//
// Metric names are dot-separated, prefixed with the owning package
// ("surface.shots", "decoder.unionfind.decodes", "sched.events"). The
// registry is process-wide: a run's own shot tally comes from its Monte
// Carlo shards, not from summing these counters, which also count every
// other run the process executed.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use. Hot loops should cache the *Counter (package-level var)
// rather than looking it up by name per iteration.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any non-negative delta; negative deltas are allowed
// but make the counter meaningless as a monotone quantity).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// reset zeroes the counter in place so cached pointers stay valid.
func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an atomic float64 supporting last-value, additive, and running-
// maximum updates. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) reset() { g.bits.Store(0) }

// Registry is a named collection of metrics. Lookups are get-or-create and
// safe for concurrent use; Reset zeroes values in place so pointers cached
// by hot paths remain valid across runs.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric in place. Metric pointers held by
// callers remain valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Default is the process-wide registry used by the instrumented packages.
var Default = NewRegistry()

// C returns a counter from the default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge from the default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram from the default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

// Reset zeroes the default registry.
func Reset() { Default.Reset() }
