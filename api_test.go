package hetarch

// Tests of the public facade: every re-exported constructor and helper must
// be usable end to end exactly as the examples use them.

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestFacadeDeviceCatalog(t *testing.T) {
	cat := DeviceCatalog()
	if len(cat) != 5 {
		t.Fatalf("catalog size %d", len(cat))
	}
	for _, d := range cat {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	if NewFixedFrequencyQubit().Kind != Compute {
		t.Fatal("transmon should be a compute device")
	}
	if NewMultimodeResonator3D().Kind != Storage {
		t.Fatal("resonator should be a storage device")
	}
	if NewMemory3D().T1 != 25000 || NewFutureOnChipResonator().Capacity != 10 {
		t.Fatal("catalog values wrong")
	}
	if NewFluxTunableQubit().ControlOverhead() != 3 {
		t.Fatal("fluxonium control overhead wrong")
	}
}

func TestFacadeCellsAndModules(t *testing.T) {
	storage := NewStandardStorage(12500, 10)
	compute := NewStandardComputeNoReadout(500)
	reg := NewRegister(storage, compute, 2)
	if v := CheckDesignRules(reg); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	pc := NewParCheck(NewStandardComputeNoReadout(500), NewStandardCompute(500))
	seqOp := NewSeqOp(
		func() *Device { return NewStandardStorage(12500, 10) },
		func() *Device { return NewStandardCompute(500) },
		NewStandardCompute(500),
	)
	usc := NewUSC(
		func() *Device { return NewStandardStorage(12500, 10) },
		func() *Device { return NewStandardCompute(500) },
		NewStandardCompute(500),
	)
	uscExt := NewUSCExt(
		func() *Device { return NewStandardStorage(12500, 10) },
		func() *Device { return NewStandardCompute(500) },
		NewStandardCompute(500),
	)
	for _, c := range []*Cell{pc, seqOp, usc, uscExt} {
		if v := CheckDesignRules(c); len(v) != 0 {
			t.Fatalf("%s violations: %v", c.Name, v)
		}
	}

	m := NewModule("demo").AddCell(reg).AddCell(pc)
	if m.QubitCapacity() != 11+2 {
		t.Fatal("module capacity roll-up wrong")
	}

	for _, chr := range []func(*Cell) (*Characterization, error){
		CharacterizeRegister,
	} {
		ch, err := chr(reg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ch.Ops) == 0 {
			t.Fatal("empty characterization")
		}
	}
	if _, err := CharacterizeParCheck(pc); err != nil {
		t.Fatal(err)
	}
	if _, err := CharacterizeSeqOp(seqOp); err != nil {
		t.Fatal(err)
	}
	if _, err := CharacterizeUSC(usc); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCodes(t *testing.T) {
	for _, c := range []*Code{SteaneCode(), ReedMullerCode(), TriColorCode(), SurfaceCode(3), SurfaceCode(5)} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if SurfaceCode(4).N != 16 {
		t.Fatal("surface code size wrong")
	}
}

func TestFacadeDistillation(t *testing.T) {
	cfg := NewDistillationConfig(12.5, true)
	cfg.Seed = 3
	cfg.ConsumeAtThreshold = true
	stats := NewDistillationModule(cfg).Run(3000)
	if stats.Generated == 0 {
		t.Fatal("no EP generation")
	}
	a := NewWernerPair(0.9)
	out, ps := DEJMPS(a, a, 0)
	if ps <= 0 || out.Fidelity() <= 0.9 {
		t.Fatal("DEJMPS through facade broken")
	}
	out, ps = BBPSSW(a, a, 0)
	if out.Fidelity() <= 0.9 || ps <= 0 {
		t.Fatal("BBPSSW through facade broken")
	}
}

func TestFacadeSurfaceMemory(t *testing.T) {
	p := NewSurfaceMemoryParams(3)
	m, err := NewSurfaceMemory(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunContext(context.Background(), 300, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 300 {
		t.Fatal("run accounting wrong")
	}
}

func TestFacadeUEC(t *testing.T) {
	p := NewUECParams(SteaneCode(), 25, true)
	m, err := NewUECModule(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.RunContext(context.Background(), 500, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.LogicalErrorRate() < 0 || r.LogicalErrorRate() > 1 {
		t.Fatal("rate out of range")
	}
}

func TestFacadeCodeTeleport(t *testing.T) {
	p := NewCodeTeleportParams(SteaneCode(), SurfaceCode(3), 25, true)
	p.NativeB = true
	p.Shots = 800
	r, err := CodeTeleport(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.LogicalErrorProbability <= 0 || r.LogicalErrorProbability > 0.5 {
		t.Fatalf("probability %v", r.LogicalErrorProbability)
	}
}

func TestFacadeSweepAndPareto(t *testing.T) {
	results, err := SweepParallel(context.Background(), []SweepParam{{Name: "x", Values: []float64{1, 2, 3}}}, 0,
		func(p SweepPoint) (map[string]float64, error) {
			return map[string]float64{"y": p["x"] * p["x"], "z": -p["x"]}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatal("sweep size")
	}
	front := ParetoFront(results, []string{"y", "z"})
	if len(front) != 3 { // y and z trade off monotonically
		t.Fatalf("front size %d", len(front))
	}
}

func TestFacadeLookupDecoder(t *testing.T) {
	// Steane Z-stabilizer supports: every single-qubit error has a unique
	// nonzero syndrome.
	checks := []uint64{0b1010101, 0b1100110, 0b1111000}
	l := NewLookupDecoder(7, checks)
	for q := 0; q < 7; q++ {
		e := uint64(1) << uint(q)
		if l.Decode(l.Syndrome(e)) != e {
			t.Fatalf("qubit %d misdecoded", q)
		}
	}
}

func TestFacadePseudothreshold(t *testing.T) {
	pt, ok, err := UECPseudothreshold(context.Background(), NewUECParams(SteaneCode(), 50, true), 1500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || pt <= 0 || math.IsNaN(pt) {
		t.Fatalf("pseudothreshold (%v, %v)", pt, ok)
	}
}

// The facade's Monte Carlo entry points stop on a cancelled context and
// report it, instead of running to completion or panicking.
func TestFacadeMonteCarloHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	pt, ok, err := UECPseudothreshold(ctx, NewUECParams(SteaneCode(), 50, true), 1500, 9)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("UECPseudothreshold error %v, want context.Canceled", err)
	}
	if ok || pt != 0 {
		t.Fatalf("cancelled pseudothreshold returned (%v, %v)", pt, ok)
	}

	p := NewCodeTeleportParams(SteaneCode(), SurfaceCode(3), 25, true)
	p.Shots = 800
	r, err := CodeTeleport(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CodeTeleport error %v, want context.Canceled", err)
	}
	if r != nil {
		t.Fatalf("cancelled CodeTeleport returned %+v", r)
	}
}
