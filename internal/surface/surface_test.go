package surface

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"hetarch/internal/obs"
	"hetarch/internal/stabsim"
)

// run is RunContext without a deadline; any error fails tb.
func run(tb testing.TB, e *Experiment, shots int, seed int64, workers int) Result {
	tb.Helper()
	r, err := e.RunContext(context.Background(), shots, seed, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestDetectorContractHolds(t *testing.T) {
	for _, basis := range []byte{'Z', 'X'} {
		for _, d := range []int{2, 3} {
			p := DefaultParams(d)
			p.Rounds = 2
			p.Basis = basis
			e, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			tr := stabsim.NewTableauRunner(e.Circuit, rand.New(rand.NewSource(1)))
			if !tr.VerifyDetectorsDeterministic(4) {
				t.Fatalf("d=%d basis=%c: detectors are not deterministic", d, basis)
			}
		}
	}
}

func TestNoiselessRunHasNoErrors(t *testing.T) {
	p := DefaultParams(3)
	p.P2 = 0
	p.TcdMicros = 1e12
	p.TcaMicros = 1e12
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, 200, 7, 1)
	if res.LogicalErrors != 0 {
		t.Fatalf("noiseless run produced %d logical errors", res.LogicalErrors)
	}
}

func TestGraphShape(t *testing.T) {
	p := DefaultParams(3)
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// d=3: 4 Z plaquettes, layers = rounds+1 = 4 -> 16 nodes.
	if e.Graph.NumNodes != 16 {
		t.Fatalf("graph nodes %d", e.Graph.NumNodes)
	}
	if err := e.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every data qubit contributes one space edge per layer: 9*4 = 36,
	// plus time edges 4 stabs * 3 = 12.
	if got := len(e.Graph.Edges); got != 36+12 {
		t.Fatalf("edge count %d", got)
	}
}

func TestDetectorCountsMatchGraph(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		p := DefaultParams(d)
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if e.Circuit.NumDetectors() != e.Graph.NumNodes {
			t.Fatalf("d=%d: %d detectors vs %d graph nodes", d, e.Circuit.NumDetectors(), e.Graph.NumNodes)
		}
	}
}

func TestLogicalErrorRateScalesWithNoise(t *testing.T) {
	quiet := DefaultParams(3)
	quiet.P2 = 0.001
	noisy := DefaultParams(3)
	noisy.P2 = 0.05
	eq, err := New(quiet)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(noisy)
	if err != nil {
		t.Fatal(err)
	}
	shots := 3000
	rq := run(t, eq, shots, 5, 1)
	rn := run(t, en, shots, 5, 1)
	if rq.LogicalErrors >= rn.LogicalErrors {
		t.Fatalf("noise scaling broken: %d (p=0.1%%) vs %d (p=5%%)", rq.LogicalErrors, rn.LogicalErrors)
	}
}

func TestBelowThresholdDistanceHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	// With mild noise, d=5 must beat d=3 (below threshold).
	mk := func(d int) Result {
		p := DefaultParams(d)
		p.P2 = 0.002
		p.TcdMicros = 500
		p.TcaMicros = 500
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return run(t, e, 4000, 11, 1)
	}
	r3 := mk(3)
	r5 := mk(5)
	if r5.ShotErrorRate() >= r3.ShotErrorRate() {
		t.Fatalf("d=5 (%v) should beat d=3 (%v) below threshold", r5.ShotErrorRate(), r3.ShotErrorRate())
	}
}

func TestDataCoherenceMattersMoreThanAncilla(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	// Paper Fig. 6: boosting T_CD reduces the logical error rate more than
	// boosting T_CA by the same factor.
	base := DefaultParams(3)
	base.Rounds = 3
	shots := 6000

	dataBoost := base
	dataBoost.TcdMicros = 500
	ancBoost := base
	ancBoost.TcaMicros = 500

	rateAt := func(p Params) float64 {
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return run(t, e, shots, 3, 1).ShotErrorRate()
	}
	d := rateAt(dataBoost)
	a := rateAt(ancBoost)
	if d >= a {
		t.Fatalf("data-coherence boost (%v) should beat ancilla boost (%v)", d, a)
	}
}

func TestPerCycleConversion(t *testing.T) {
	r := Result{Shots: 1000, LogicalErrors: 100, Rounds: 5}
	pc := r.PerCycleErrorRate()
	if pc <= 0 || pc >= r.ShotErrorRate() {
		t.Fatalf("per-cycle rate %v out of range", pc)
	}
	sat := Result{Shots: 10, LogicalErrors: 5, Rounds: 5}
	if sat.PerCycleErrorRate() != 0.5 {
		t.Fatal("saturated rate should clamp to 0.5")
	}
}

func TestBadParams(t *testing.T) {
	if _, err := New(Params{Distance: 1, Basis: 'Z'}); err == nil {
		t.Fatal("expected error for d=1")
	}
	p := DefaultParams(3)
	p.Basis = 'Q'
	if _, err := New(p); err == nil {
		t.Fatal("expected error for bad basis")
	}
}

func TestXBasisExperimentRuns(t *testing.T) {
	p := DefaultParams(3)
	p.Basis = 'X'
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, e, 500, 9, 1)
	if res.Shots != 500 {
		t.Fatal("run accounting wrong")
	}
}

func TestRunShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	p := DefaultParams(3)
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	serial := run(t, e, 4000, 5, 1)
	if serial.Shots != 4000 {
		t.Fatalf("shot accounting wrong: %+v", serial)
	}
	for _, w := range []int{4, runtime.NumCPU(), 0} {
		got := run(t, e, 4000, 5, w)
		if got != serial {
			t.Fatalf("workers=%d: %+v != workers=1 %+v", w, got, serial)
		}
	}
	// Two runs at the same worker count are bit-identical.
	if again := run(t, e, 4000, 5, 4); again != serial {
		t.Fatal("sharded run not reproducible")
	}
}

func TestRunShardedSmallJobIdenticalAtAnyWorkerCount(t *testing.T) {
	p := DefaultParams(2)
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	a := run(t, e, 50, 9, 1) // one partial shard
	b := run(t, e, 50, 9, 8)
	if a.LogicalErrors != b.LogicalErrors || a.Shots != b.Shots {
		t.Fatal("small jobs must be identical at any worker count")
	}
}

func BenchmarkRunSharded(b *testing.B) {
	e, err := New(DefaultParams(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, e, 4096, int64(i), 4)
	}
}

func BenchmarkRunSerial(b *testing.B) {
	e, err := New(DefaultParams(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, e, 1024, int64(i), 1)
	}
}

func TestRunCountsShots(t *testing.T) {
	e, err := New(DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	shots0 := obs.C("surface.shots").Value()
	decodes0 := obs.C("decoder.unionfind.decodes").Value()
	run(t, e, 130, 1, 1)
	if d := obs.C("surface.shots").Value() - shots0; d != 130 {
		t.Fatalf("shot counter delta %d, want 130", d)
	}
	if d := obs.C("decoder.unionfind.decodes").Value() - decodes0; d != 130 {
		t.Fatalf("decode counter delta %d, want 130", d)
	}
	// Sharded runs must account every worker's shots exactly once.
	shots1 := obs.C("surface.shots").Value()
	run(t, e, 1000, 1, 4)
	if d := obs.C("surface.shots").Value() - shots1; d != 1000 {
		t.Fatalf("sharded shot counter delta %d, want 1000", d)
	}
}
