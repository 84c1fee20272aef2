package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of every metric in a registry, suitable
// for deterministic test assertions and for rendering. Zero-valued metrics
// are included: a registered counter that never fired is itself a signal.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Counter returns the snapshotted value of the named counter (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the snapshotted value of the named gauge (0 if absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// fmtValue renders nanosecond-valued metrics as durations so the table is
// readable; everything else prints as a plain number.
func fmtValue(name string, v int64) string {
	if strings.HasSuffix(name, "_ns") {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%d", v)
}

// WriteTable renders the snapshot as an aligned text table with sorted
// names — byte-identical output for equal snapshots.
func (s Snapshot) WriteTable(w io.Writer) {
	section := func(title string, names []string, render func(name string) string) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		fmt.Fprintf(w, "-- %s --\n", title)
		for _, name := range names {
			fmt.Fprintf(w, "  %-40s %s\n", name, render(name))
		}
	}
	var cn, gn, hn []string
	for name := range s.Counters {
		cn = append(cn, name)
	}
	for name := range s.Gauges {
		gn = append(gn, name)
	}
	for name := range s.Histograms {
		hn = append(hn, name)
	}
	section("counters", cn, func(name string) string {
		return fmtValue(name, s.Counters[name])
	})
	section("gauges", gn, func(name string) string {
		return fmt.Sprintf("%g", s.Gauges[name])
	})
	section("histograms", hn, func(name string) string {
		h := s.Histograms[name]
		return fmt.Sprintf("count=%d sum=%s min=%s p50=%s p90=%s p99=%s max=%s",
			h.Count, fmtValue(name, h.Sum), fmtValue(name, h.Min),
			fmtValue(name, h.P50), fmtValue(name, h.P90), fmtValue(name, h.P99),
			fmtValue(name, h.Max))
	})
}
