// Package dse is the parallel design-space-exploration engine for the
// paper's third pillar (Section 4, "Design Space Exploration" and the
// evaluation sweeps of Section 6): it evaluates a full factorial grid of
// design parameters across a pool of workers, with each point composing
// cached standard-cell characterizations instead of re-running
// density-matrix simulation — the ≥10⁴ simulation-cost reduction HetArch
// claims for cell-once/compose-many methodology.
//
// The engine follows the same deterministic decomposition discipline as
// internal/mc: the point enumeration depends only on the parameter grid
// (never on worker count or scheduling), results are merged in point-index
// order, and a cancelled run returns the longest contiguous prefix of
// completed points together with a typed *PartialError. Sweep output is
// therefore bit-identical for any number of workers, making -workers a pure
// throughput knob for DSE exactly as it is for Monte Carlo.
//
// The memo itself is core.Characterizer: callers share one across a sweep,
// so each distinct cell is simulated once per process.
package dse

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hetarch/internal/core"
	"hetarch/internal/mc"
	"hetarch/internal/obs"
	"hetarch/internal/obs/runlog"
	"hetarch/internal/obs/trace"
)

// Structured-log events (no-ops until the CLI installs a run logger).
var (
	evSweepDone        = runlog.Event("dse.sweep_done")
	evSweepInterrupted = runlog.Event("dse.sweep_interrupted")
)

// pointWall is the per-point evaluation wall time. With a warm
// characterization cache it collapses toward microseconds; the cold-cache
// tail is the density-matrix simulations — comparing the two is how a
// sweep's cost is attributed.
var pointWall = obs.H("dse.point_wall_ns")

// Config holds the engine knobs. The zero value is valid: Workers <= 0
// resolves to runtime.NumCPU via mc.ResolveWorkers.
type Config struct {
	Workers int
}

// PartialError reports a sweep that stopped before evaluating every grid
// point — cancelled or failed by an evaluator error. The partial result
// returned alongside it is the longest contiguous prefix of completed
// points, so a resumed sweep can continue from index Completed. Unwrap
// exposes the cause, so errors.Is(err, context.Canceled) works.
type PartialError struct {
	Cause     error // context error or the first evaluator error
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

// Sweep evaluates fn on every point of the parameter grid using
// mc.ResolveWorkers(cfg.Workers) goroutines and merges the results in point
// order. The output is bit-identical for any worker count, provided fn is a
// pure function of its point (shared state such as a core.Characterizer is
// fine: the characterization of a cell configuration does not depend on
// which point requested it first).
//
// When ctx is cancelled or fn returns an error, the engine stops
// dispatching new points, lets in-flight evaluations finish, and returns
// the longest contiguous prefix of completed results together with a
// *PartialError. With a single worker the prefix is exactly the points
// evaluated before the stop; with more workers, later out-of-order
// completions past the first gap are discarded so the prefix property
// holds regardless of scheduling.
func Sweep(ctx context.Context, params []core.Param, cfg Config, fn func(core.Point) (map[string]float64, error)) ([]core.Result, error) {
	points := Points(params)
	if len(points) == 0 {
		return nil, nil
	}
	out := make([]core.Result, len(points))
	done := make([]bool, len(points))

	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	var firstErr atomic.Pointer[error]

	// process evaluates one point on worker lane `lane`, returning false
	// when the sweep must wind down because the evaluator failed. Each
	// evaluation feeds the dse.point_wall_ns histogram; sampled points
	// (deterministic 1-in-N by grid index) additionally emit a trace event
	// on the worker's lane, so a Perfetto view of a sweep shows which
	// points were cache-served and which paid for simulation.
	process := func(lane, i int) bool {
		start := time.Now()
		traced := trace.Sampled(i)
		var ts0 int64
		if traced {
			ts0 = trace.Now()
		}
		m, err := fn(points[i])
		pointWall.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			err = fmt.Errorf("dse: point %d: %w", i, err)
			firstErr.CompareAndSwap(nil, &err)
			stop()
			return false
		}
		if traced {
			trace.Emit(trace.Event{
				Name: fmt.Sprintf("point %d", i), Cat: "dse.point",
				Proc: "dse", Lane: lane, Phase: trace.PhaseComplete,
				TS: ts0, Dur: trace.Now() - ts0, Index: int64(i),
			})
		}
		out[i] = core.Result{Point: points[i], Metrics: m}
		done[i] = true
		return true
	}

	workers := mc.ResolveWorkers(cfg.Workers)
	if workers > len(points) {
		workers = len(points)
	}
	if workers <= 1 {
		for i := range points {
			if runCtx.Err() != nil {
				break
			}
			if !process(0, i) {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for runCtx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(points) {
						return
					}
					if !process(lane, i) {
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	prefix := 0
	for prefix < len(done) && done[prefix] {
		prefix++
	}
	if prefix == len(points) {
		runlog.L().Info(evSweepDone, "points", len(points), "workers", workers)
		return out, nil
	}
	var cause error
	if ep := firstErr.Load(); ep != nil {
		cause = *ep
	} else if err := ctx.Err(); err != nil {
		cause = err
	} else {
		cause = context.Canceled // unreachable: incomplete sweeps have an error or a dead context
	}
	runlog.L().Warn(evSweepInterrupted, "completed", prefix, "points", len(points), "cause", cause.Error())
	return out[:prefix], &PartialError{Cause: cause, Completed: prefix, Points: len(points)}
}
