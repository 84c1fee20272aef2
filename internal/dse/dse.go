// Package dse is the design-space-exploration sweep for the paper's third
// pillar (Section 4, "Design Space Exploration" and the evaluation sweeps
// of Section 6): it evaluates a full factorial grid of design parameters,
// with each point composing cached standard-cell characterizations instead
// of re-running density-matrix simulation — the ≥10⁴ simulation-cost
// reduction HetArch claims for cell-once/compose-many methodology.
//
// The sweep runs on the mc engine: point i is the one-shot shard i of an
// mc.MapShardsContext run, so it inherits the engine's worker pool, panic
// isolation with one retry, fault-injection binding and telemetry. The
// point enumeration depends only on the parameter grid (never on worker
// count or scheduling), results are placed by point index, and a cancelled
// or failed run returns the longest contiguous prefix of completed points
// together with a typed *PartialError. Sweep output is therefore
// bit-identical for any number of workers, making -workers a pure
// throughput knob for DSE exactly as it is for Monte Carlo.
//
// The memo itself is core.Characterizer: callers share one across a sweep,
// so each distinct cell is simulated once per process.
package dse

import (
	"context"
	"fmt"

	"hetarch/internal/core"
	"hetarch/internal/mc"
	"hetarch/internal/obs/runlog"
)

// Structured-log events (no-ops until the CLI installs a run logger).
var (
	evSweepDone        = runlog.Event("dse.sweep_done")
	evSweepInterrupted = runlog.Event("dse.sweep_interrupted")
)

// PartialError reports a sweep that stopped before evaluating every grid
// point — cancelled or failed by an evaluator error or panic. The partial
// result returned alongside it is the longest contiguous prefix of
// completed points, so a resumed sweep can continue from index Completed.
// Unwrap exposes the cause, so errors.Is(err, context.Canceled) works.
type PartialError struct {
	Cause     error // context error, the first evaluator error, or a *mc.ShardFault
	Completed int   // length of the contiguous completed prefix returned
	Points    int   // total points in the grid
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("dse: sweep interrupted after %d/%d points: %v",
		e.Completed, e.Points, e.Cause)
}

func (e *PartialError) Unwrap() error { return e.Cause }

// Points enumerates the full factorial grid of the parameters in the
// engine's canonical order: the last parameter varies fastest, matching the
// serial core.Sweep exactly. The enumeration is a pure function of the
// grid, which is what makes the parallel sweep's index-order merge
// deterministic.
func Points(params []core.Param) []core.Point {
	n := 1
	for _, p := range params {
		n *= len(p.Values)
	}
	if len(params) == 0 || n == 0 {
		return nil
	}
	out := make([]core.Point, 0, n)
	point := core.Point{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(params) {
			cp := core.Point{}
			for k, v := range point {
				cp[k] = v
			}
			out = append(out, cp)
			return
		}
		for _, v := range params[i].Values {
			point[params[i].Name] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// evaluated is one point's outcome. ok marks an evaluation that returned
// without error, since a nil metrics map is a legal result; points the
// sweep never reached are the zero value.
type evaluated struct {
	metrics map[string]float64
	err     error
	ok      bool
}

// Sweep evaluates fn on every point of the parameter grid with
// mc.ResolveWorkers(workers) goroutines, one point per mc shard, and
// returns the results in point order. The output is bit-identical for any
// worker count, provided fn is a pure function of its point (shared state
// such as a core.Characterizer is fine: the characterization of a cell
// configuration does not depend on which point requested it first).
//
// When ctx is cancelled or fn returns an error, the engine stops
// dispatching new points, lets in-flight evaluations finish, and returns
// the longest contiguous prefix of completed results together with a
// *PartialError whose cause is what stopped the first missing point. A
// panicking evaluation is retried once on its point; if it panics again,
// the cause is the engine's *mc.ShardFault. With a single
// worker the prefix is exactly the points evaluated before the stop; with
// more workers, later out-of-order completions past the first gap are
// discarded so the prefix property holds regardless of scheduling.
func Sweep(ctx context.Context, params []core.Param, workers int, fn func(core.Point) (map[string]float64, error)) ([]core.Result, error) {
	points := Points(params)
	if len(points) == 0 {
		return nil, nil
	}
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	cfg := mc.Config{Shots: len(points), Workers: workers, ShardSize: 1}
	evals, err := mc.MapShardsContext(runCtx, cfg, func() func(mc.Shard) evaluated {
		return func(sh mc.Shard) evaluated {
			m, err := fn(points[sh.Index])
			if err != nil {
				stop()
				return evaluated{err: fmt.Errorf("dse: point %d: %w", sh.Index, err)}
			}
			return evaluated{metrics: m, ok: true}
		}
	})

	out := make([]core.Result, 0, len(points))
	for i, ev := range evals {
		if !ev.ok {
			break
		}
		out = append(out, core.Result{Point: points[i], Metrics: ev.metrics})
	}
	if len(out) == len(points) {
		runlog.L().Info(evSweepDone, "points", len(points), "workers", min(mc.ResolveWorkers(workers), len(points)))
		return out, nil
	}
	// The cause is what stopped the first missing point: its evaluator
	// error, or else the engine's (a shard fault or the dead context).
	cause := evals[len(out)].err
	if cause == nil {
		cause = err.(*mc.PartialError).Cause
	}
	runlog.L().Warn(evSweepInterrupted, "completed", len(out), "points", len(points), "cause", cause.Error())
	return out, &PartialError{Cause: cause, Completed: len(out), Points: len(points)}
}
