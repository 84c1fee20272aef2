package dse

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"hetarch/internal/core"
	"hetarch/internal/mc"
	"hetarch/internal/mc/chaos"
)

func grid() []core.Param {
	return []core.Param{
		{Name: "a", Values: []float64{1, 2, 3}},
		{Name: "b", Values: []float64{0.5, 1.5}},
		{Name: "c", Values: []float64{10, 20, 30, 40}},
	}
}

func eval(p core.Point) (map[string]float64, error) {
	return map[string]float64{
		"sum":  p["a"] + p["b"] + p["c"],
		"prod": p["a"] * p["b"] * p["c"],
	}, nil
}

func TestPointsMatchSerialSweepOrder(t *testing.T) {
	params := grid()
	var serial []core.Point
	core.Sweep(params, func(p core.Point) map[string]float64 {
		serial = append(serial, p)
		return nil
	})
	points := Points(params)
	if !reflect.DeepEqual(points, serial) {
		t.Fatalf("Points enumeration diverges from core.Sweep order:\n%v\nvs\n%v", points, serial)
	}
	if len(points) != 3*2*4 {
		t.Fatalf("expected %d points, got %d", 3*2*4, len(points))
	}
}

func TestPointsEmpty(t *testing.T) {
	if got := Points(nil); got != nil {
		t.Fatalf("Points(nil) = %v, want nil", got)
	}
	if got := Points([]core.Param{{Name: "a"}}); got != nil {
		t.Fatalf("Points with empty value list = %v, want nil", got)
	}
}

// TestSweepDeterministicAcrossWorkers is the engine's headline contract:
// bit-identical results at workers 1, 4 and NumCPU, and identical to the
// serial core.Sweep.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	params := grid()
	run := func(workers int) []core.Result {
		t.Helper()
		res, err := Sweep(context.Background(), params, workers, eval)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	serial := core.Sweep(params, func(p core.Point) map[string]float64 {
		m, _ := eval(p)
		return m
	})
	if !reflect.DeepEqual(base, serial) {
		t.Fatalf("parallel engine at workers=1 diverges from serial core.Sweep")
	}
	for _, w := range []int{4, runtime.NumCPU()} {
		if got := run(w); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d result diverges from workers=1", w)
		}
	}
	// Reproducibility: a second identical run must match bit for bit.
	if got := run(4); !reflect.DeepEqual(got, base) {
		t.Fatalf("repeated run diverges")
	}
}

// TestSweepCancelPrefix cancels after exactly K evaluations at workers=1
// and requires the first-K prefix back, matching what an uninterrupted run
// produces for those indices.
func TestSweepCancelPrefix(t *testing.T) {
	params := grid()
	full, err := Sweep(context.Background(), params, 1, eval)
	if err != nil {
		t.Fatal(err)
	}
	const k = 7
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	res, err := Sweep(ctx, params, 1, func(p core.Point) (map[string]float64, error) {
		if calls.Add(1) == k {
			cancel()
		}
		return eval(p)
	})
	if err == nil {
		t.Fatal("expected a PartialError from the cancelled sweep")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PartialError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PartialError does not unwrap to context.Canceled: %v", err)
	}
	if pe.Completed != k || pe.Points != len(full) {
		t.Fatalf("PartialError reports %d/%d, want %d/%d", pe.Completed, pe.Points, k, len(full))
	}
	if len(res) != k {
		t.Fatalf("cancelled sweep returned %d results, want the first-%d prefix", len(res), k)
	}
	if !reflect.DeepEqual(res, full[:k]) {
		t.Fatalf("cancelled prefix diverges from the uninterrupted run's first %d results", k)
	}
}

// TestSweepCancelPrefixParallel checks the prefix property under real
// worker concurrency: whatever prefix comes back must equal the
// uninterrupted run's prefix of that length.
func TestSweepCancelPrefixParallel(t *testing.T) {
	params := grid()
	full, err := Sweep(context.Background(), params, 1, eval)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	res, err := Sweep(ctx, params, 4, func(p core.Point) (map[string]float64, error) {
		if calls.Add(1) == 5 {
			cancel()
		}
		return eval(p)
	})
	if err == nil {
		// All in-flight points may have drained the grid; that is legal.
		res, err = full, nil
	}
	var pe *PartialError
	if err != nil && !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PartialError", err)
	}
	if pe != nil && pe.Completed != len(res) {
		t.Fatalf("PartialError.Completed=%d but %d results returned", pe.Completed, len(res))
	}
	if !reflect.DeepEqual(res, full[:len(res)]) {
		t.Fatalf("parallel cancelled prefix diverges from the uninterrupted run")
	}
}

// TestSweepEvaluatorError stops the sweep and surfaces the evaluator's
// error as the PartialError cause, with a valid prefix result.
func TestSweepEvaluatorError(t *testing.T) {
	params := grid()
	full, err := Sweep(context.Background(), params, 1, eval)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("device model rejected point")
	calls := 0
	res, err := Sweep(context.Background(), params, 1, func(p core.Point) (map[string]float64, error) {
		calls++
		if p["a"] == 2 && p["b"] == 0.5 && p["c"] == 10 {
			return nil, boom
		}
		return eval(p)
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PartialError", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("PartialError does not unwrap to the evaluator error: %v", err)
	}
	// Point (2, 0.5, 10) is index 8 in the enumeration, so the prefix is 8.
	if len(res) != 8 || pe.Completed != 8 {
		t.Fatalf("got %d results (Completed=%d), want the first-8 prefix", len(res), pe.Completed)
	}
	if !reflect.DeepEqual(res, full[:8]) {
		t.Fatalf("error-stopped prefix diverges from the uninterrupted run")
	}
	// The error cancels the sweep: one worker evaluates nothing past it.
	if calls != 9 {
		t.Fatalf("evaluator ran %d times, want 9 (dispatch must stop at the error)", calls)
	}
}

// TestSweepAlreadyCancelled returns an empty prefix without evaluating.
func TestSweepAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	res, err := Sweep(ctx, grid(), 4, func(p core.Point) (map[string]float64, error) {
		calls.Add(1)
		return eval(p)
	})
	if len(res) != 0 {
		t.Fatalf("got %d results from a dead context, want 0", len(res))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("evaluator ran %d times under a dead context", calls.Load())
	}
}

// TestSweepNilMetrics: a nil metrics map is a legal evaluation, not a
// missing point, so a sweep of them is complete.
func TestSweepNilMetrics(t *testing.T) {
	points := Points(grid())
	res, err := Sweep(context.Background(), grid(), 4, func(core.Point) (map[string]float64, error) {
		return nil, nil
	})
	if err != nil || len(res) != len(points) {
		t.Fatalf("got %d results (err %v), want all %d", len(res), err, len(points))
	}
	for i, r := range res {
		if r.Metrics != nil || !reflect.DeepEqual(r.Point, points[i]) {
			t.Fatalf("result %d = %+v, want point %v with nil metrics", i, r, points[i])
		}
	}
}

// TestSweepEvaluatorPanic: a panicking evaluation is the engine's shard
// fault. One panic is absorbed by the engine's same-point retry, so the
// sweep returns the uninterrupted results; a point that panics on every
// attempt stops the sweep with the prefix before it and a *PartialError
// whose cause is the *mc.ShardFault.
func TestSweepEvaluatorPanic(t *testing.T) {
	params := grid()
	full, err := Sweep(context.Background(), params, 1, eval)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 8
	badPoint := Points(params)[bad]
	isBad := func(p core.Point) bool { return reflect.DeepEqual(p, badPoint) }

	for _, workers := range []int{1, 4} {
		var panicked atomic.Bool
		res, err := Sweep(context.Background(), params, workers, func(p core.Point) (map[string]float64, error) {
			if isBad(p) && panicked.CompareAndSwap(false, true) {
				panic("transient evaluator fault")
			}
			return eval(p)
		})
		if err != nil {
			t.Fatalf("workers=%d: one panic was not retried: %v", workers, err)
		}
		if !panicked.Load() || !reflect.DeepEqual(res, full) {
			t.Fatalf("workers=%d: retried sweep diverges from the uninterrupted run (panicked=%v)", workers, panicked.Load())
		}
	}

	res, err := Sweep(context.Background(), params, 1, func(p core.Point) (map[string]float64, error) {
		if isBad(p) {
			panic("deterministic evaluator fault")
		}
		return eval(p)
	})
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PartialError", err)
	}
	var fault *mc.ShardFault
	if !errors.As(pe.Cause, &fault) || fault.Shard != bad || fault.Attempts != 1+mc.DefaultShardRetries {
		t.Fatalf("cause %v is not point %d's shard fault after %d attempts", pe.Cause, bad, 1+mc.DefaultShardRetries)
	}
	if pe.Completed != bad || pe.Points != len(full) || len(res) != bad {
		t.Fatalf("got %d results (PartialError %d/%d), want the first-%d prefix of %d", len(res), pe.Completed, pe.Points, bad, len(full))
	}
	if !reflect.DeepEqual(res, full[:bad]) {
		t.Fatalf("fault-stopped prefix diverges from the uninterrupted run")
	}
}

// TestChaosSweepInjectedPanic: a fault injector bound to the sweep's
// context reaches its points, and the retried points leave the results
// bit-identical.
func TestChaosSweepInjectedPanic(t *testing.T) {
	params := grid()
	full, err := Sweep(context.Background(), params, 1, eval)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		in := chaos.New(2)
		for _, k := range in.PickShards(3, len(full)) {
			in.PanicOnShard(k, 1)
		}
		res, err := Sweep(mc.WithFaultInjector(context.Background(), in), params, workers, eval)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if in.InjectedFaults() != 3 {
			t.Fatalf("workers=%d: injector raised %d panics, want 3", workers, in.InjectedFaults())
		}
		if !reflect.DeepEqual(res, full) {
			t.Fatalf("workers=%d: sweep under injected panics diverges from the uninterrupted run", workers)
		}
	}
}
