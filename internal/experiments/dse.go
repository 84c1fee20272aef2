package experiments

import (
	"context"
	"fmt"

	"hetarch/internal/cell"
	"hetarch/internal/core"
	"hetarch/internal/device"
	"hetarch/internal/dse"
)

// DSEResult is a completed design-space exploration: the full swept grid,
// its Pareto front, and the characterization-cache accounting for the run.
type DSEResult struct {
	Results []core.Result
	Front   []core.Result
	Calls   int // characterizations requested (one per grid point)
	Hits    int // requests served from cache or a concurrent in-flight run
}

// dseParams is the swept grid: register storage lifetime and mode count
// (which change the cell, so each distinct pair costs one density-matrix
// characterization) crossed with the idle-window length (an operational
// parameter that reuses the cached channel).
func dseParams() []core.Param {
	return []core.Param{
		{Name: "tsMillis", Values: []float64{0.5, 1, 2.5, 5, 12.5, 25, 50}},
		{Name: "modes", Values: []float64{3, 10}},
		{Name: "idleWindowUs", Values: []float64{1, 5, 10, 50, 100}},
	}
}

// DSE runs the design-space exploration over the distillation module's
// register parameters on the parallel sweep engine, demonstrating the
// paper's simulation-hierarchy payoff: each distinct standard-cell
// configuration is density-matrix-characterized once, and every grid point
// evaluates the module-level metric from the cached channel abstraction.
// workers is the sweep engine's goroutine count (<= 0 means
// runtime.NumCPU()).
//
// The swept results and Pareto front are bit-identical for any worker
// count, and so is the accounting: single-flight makes the number of
// simulations the number of distinct cells.
func DSE(ctx context.Context, workers int) (*DSEResult, error) {
	ch := core.NewCharacterizer()
	// Stats reads the process-wide registry; difference it around the sweep
	// so the reported numbers are this run's own.
	calls0, hits0 := ch.Stats()
	results, err := dse.Sweep(ctx, dseParams(), dse.Config{Workers: workers}, func(p core.Point) (map[string]float64, error) {
		ts := p["tsMillis"] * 1000
		modes := int(p["modes"])
		reg := cell.NewRegister(device.StandardStorage(ts, modes), device.StandardComputeNoReadout(500), 2)
		char, err := ch.Characterize(cell.Fingerprint(reg), reg, cell.CharacterizeRegister)
		if err != nil {
			return nil, err
		}
		idle := char.MustOp("idle-1us")
		load := char.MustOp("load")
		// Module-level metric from the channel abstraction only: error of
		// storing a qubit for the idle window (per-µs error compounded)
		// plus one load/store round trip.
		perUs := idle.ErrorRate()
		window := p["idleWindowUs"]
		keep := 1.0
		for i := 0; i < int(window); i++ {
			keep *= 1 - perUs
		}
		total := (1 - keep) + 2*load.ErrorRate()
		return map[string]float64{
			"storedError": total,
			"footprint":   reg.FootprintArea(),
			"capacity":    float64(reg.QubitCapacity()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	calls1, hits1 := ch.Stats()
	return &DSEResult{
		Results: results,
		Front:   core.ParetoFront(results, []string{"storedError", "footprint"}),
		Calls:   calls1 - calls0,
		Hits:    hits1 - hits0,
	}, nil
}

// Table renders the Pareto front as a standard experiment table, so the
// CLI's text and JSON emitters both work. Only sweep outputs appear here;
// the cache accounting (Calls, Hits) is telemetry.
func (r *DSEResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Design-space exploration: Register cell (%d grid points, %d Pareto-optimal)", len(r.Results), len(r.Front)),
		Columns: []string{"storedError", "footprint", "capacity"},
	}
	for _, res := range r.Front {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("ts=%gms modes=%g win=%gus", res.Point["tsMillis"], res.Point["modes"], res.Point["idleWindowUs"]),
			Values: []float64{
				res.Metrics["storedError"], res.Metrics["footprint"], res.Metrics["capacity"],
			},
		})
	}
	return t
}
