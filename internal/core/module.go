// Package core is the HetArch composer: it ties devices, standard cells and
// modules into a hierarchy, memoizes each cell characterization once per
// process so that module- and system-level analyses never repeat
// device-level density-matrix simulation, composes module error budgets
// phenomenologically, and provides the design-space-exploration (DSE) sweep
// framework used by every experiment in the evaluation section.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hetarch/internal/cell"
	"hetarch/internal/obs"
)

// Process-wide characterization-cache telemetry: the single source of truth
// for cache accounting. The CLI's -metrics snapshot and Stats both read it,
// so the paper's cost-hierarchy cache is visible regardless of which
// experiment constructed the cache.
var (
	charCalls  = obs.C("core.characterize.calls")
	charHits   = obs.C("core.characterize.hits")
	charMisses = obs.C("core.characterize.misses")
)

// Module is a node in the hardware hierarchy: it executes a subroutine using
// its standard cells and sub-modules. Modules may appear as sub-modules of
// larger modules (the hierarchy is flexible, per Section 2).
type Module struct {
	Name       string
	Cells      []*cell.Cell
	SubModules []*Module
}

// NewModule returns an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// AddCell appends a standard cell and returns the module for chaining.
func (m *Module) AddCell(c *cell.Cell) *Module {
	m.Cells = append(m.Cells, c)
	return m
}

// AddSubModule appends a sub-module and returns the module for chaining.
func (m *Module) AddSubModule(s *Module) *Module {
	m.SubModules = append(m.SubModules, s)
	return m
}

// Walk visits the module and all descendants depth-first.
func (m *Module) Walk(fn func(*Module)) {
	fn(m)
	for _, s := range m.SubModules {
		s.Walk(fn)
	}
}

// AllCells returns every cell in the hierarchy.
func (m *Module) AllCells() []*cell.Cell {
	var out []*cell.Cell
	m.Walk(func(mod *Module) { out = append(out, mod.Cells...) })
	return out
}

// FootprintArea rolls up the 2D footprint (mm²) of every device beneath the
// module.
func (m *Module) FootprintArea() float64 {
	var a float64
	for _, c := range m.AllCells() {
		a += c.FootprintArea()
	}
	return a
}

// ControlOverhead rolls up the control-line count of every device.
func (m *Module) ControlOverhead() int {
	n := 0
	for _, c := range m.AllCells() {
		n += c.ControlOverhead()
	}
	return n
}

// QubitCapacity rolls up qubit capacity.
func (m *Module) QubitCapacity() int {
	n := 0
	for _, c := range m.AllCells() {
		n += c.QubitCapacity()
	}
	return n
}

// ValidateDesignRules checks every cell in the hierarchy and returns the
// violations keyed by cell path.
func (m *Module) ValidateDesignRules() map[string][]cell.Violation {
	out := map[string][]cell.Violation{}
	var walk func(mod *Module, prefix string)
	walk = func(mod *Module, prefix string) {
		path := prefix + mod.Name
		for i, c := range mod.Cells {
			if v := cell.CheckDesignRules(c); len(v) > 0 {
				out[fmt.Sprintf("%s/%s[%d]", path, c.Name, i)] = v
			}
		}
		for _, s := range mod.SubModules {
			walk(s, path+"/")
		}
	}
	walk(m, "")
	return out
}

// Tree renders the hierarchy as an indented listing for reports.
func (m *Module) Tree() string {
	var b strings.Builder
	var walk func(mod *Module, depth int)
	walk = func(mod *Module, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s%s\n", indent, mod.Name)
		for _, c := range mod.Cells {
			fmt.Fprintf(&b, "%s  [cell] %s (%d devices)\n", indent, c.Name, len(c.Elements))
		}
		for _, s := range mod.SubModules {
			walk(s, depth+1)
		}
	}
	walk(m, 0)
	return b.String()
}

// Characterizer memoizes standard-cell characterizations. The cache is what
// delivers the paper's simulation-burden reduction: each distinct cell
// configuration is density-matrix-simulated once, then reused as a channel
// across the whole design space sweep.
//
// Misses run single-flight: concurrent requests for the same key — the
// normal case under the parallel sweep engine, whose workers all reach the
// first grid point of a new cell configuration together — perform exactly
// one density-matrix simulation, with the losers blocking on the winner's
// result.
type Characterizer struct {
	mu       sync.Mutex
	memo     map[string]*cell.Characterization
	inflight map[string]*flight
}

// flight is one in-progress characterization; followers block on done and
// then share res/err.
type flight struct {
	done chan struct{}
	res  *cell.Characterization
	err  error
}

// NewCharacterizer returns an empty characterizer.
func NewCharacterizer() *Characterizer {
	return &Characterizer{memo: map[string]*cell.Characterization{}, inflight: map[string]*flight{}}
}

// Characterize returns the memoized characterization for key, running fn on
// a miss. Keys must uniquely encode the cell's device parameters (use
// cell.Fingerprint for the canonical construction). A result served from
// the memo or from another goroutine's in-flight simulation counts as a
// hit; only the goroutine that actually runs fn counts a miss. Failed
// characterizations are never stored.
func (ch *Characterizer) Characterize(key string, c *cell.Cell, fn func(*cell.Cell) (*cell.Characterization, error)) (*cell.Characterization, error) {
	charCalls.Inc()
	ch.mu.Lock()
	if got, ok := ch.memo[key]; ok {
		ch.mu.Unlock()
		charHits.Inc()
		return got, nil
	}
	if f, ok := ch.inflight[key]; ok {
		ch.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		charHits.Inc()
		return f.res, nil
	}
	f := &flight{done: make(chan struct{})}
	ch.inflight[key] = f
	ch.mu.Unlock()

	charMisses.Inc()
	res, err := fn(c)
	if err != nil {
		res = nil
	}
	f.res, f.err = res, err
	ch.mu.Lock()
	if err == nil {
		ch.memo[key] = res
	}
	delete(ch.inflight, key)
	ch.mu.Unlock()
	close(f.done)
	return res, err
}

// Stats reports the process-wide (calls, hits) totals straight from the obs
// registry (core.characterize.{calls,hits}) — the same numbers the -metrics
// snapshot shows, so the two can never drift. Because the counters are
// process-wide, callers that want the accounting of one sweep (the DSE
// speedup bench, tests) must difference Stats before and after it.
func (ch *Characterizer) Stats() (calls, hits int) {
	return int(charCalls.Value()), int(charHits.Value())
}

// ErrorBudget composes a module's logical error phenomenologically:
// independent sub-module error rates are summed (capped at 1), durations
// accumulated — the paper's module-level model.
type ErrorBudget struct {
	Items []BudgetItem
}

// BudgetItem is one contribution to the budget.
type BudgetItem struct {
	Name     string
	Rate     float64
	Duration float64 // µs
}

// Add appends a contribution.
func (b *ErrorBudget) Add(name string, rate, duration float64) {
	b.Items = append(b.Items, BudgetItem{Name: name, Rate: rate, Duration: duration})
}

// TotalErrorRate sums the independent rates, capped at 1.
func (b *ErrorBudget) TotalErrorRate() float64 {
	var s float64
	for _, it := range b.Items {
		s += it.Rate
	}
	if s > 1 {
		return 1
	}
	return s
}

// TotalDuration sums the durations.
func (b *ErrorBudget) TotalDuration() float64 {
	var s float64
	for _, it := range b.Items {
		s += it.Duration
	}
	return s
}

// String renders the budget as a table.
func (b *ErrorBudget) String() string {
	var sb strings.Builder
	for _, it := range b.Items {
		fmt.Fprintf(&sb, "%-24s rate=%.6f duration=%.3fus\n", it.Name, it.Rate, it.Duration)
	}
	fmt.Fprintf(&sb, "%-24s rate=%.6f duration=%.3fus\n", "TOTAL", b.TotalErrorRate(), b.TotalDuration())
	return sb.String()
}

// Param is one swept design parameter.
type Param struct {
	Name   string
	Values []float64
}

// Point is one assignment of all swept parameters.
type Point map[string]float64

// Result pairs a design point with its evaluated metrics.
type Result struct {
	Point   Point
	Metrics map[string]float64
}

// Sweep evaluates fn on the full factorial grid of the parameters,
// in deterministic order.
func Sweep(params []Param, fn func(Point) map[string]float64) []Result {
	var results []Result
	point := Point{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(params) {
			cp := Point{}
			for k, v := range point {
				cp[k] = v
			}
			results = append(results, Result{Point: cp, Metrics: fn(cp)})
			return
		}
		for _, v := range params[i].Values {
			point[params[i].Name] = v
			rec(i + 1)
		}
	}
	rec(0)
	return results
}

// ParetoFront filters results to the Pareto-optimal set under minimization
// of the listed metrics.
func ParetoFront(results []Result, minimize []string) []Result {
	dominates := func(a, b Result) bool {
		strict := false
		for _, m := range minimize {
			av, bv := a.Metrics[m], b.Metrics[m]
			if av > bv {
				return false
			}
			if av < bv {
				strict = true
			}
		}
		return strict
	}
	var front []Result
	for i, r := range results {
		dominated := false
		for j, o := range results {
			if i != j && dominates(o, r) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, r)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		return front[i].Metrics[minimize[0]] < front[j].Metrics[minimize[0]]
	})
	return front
}
