package distill

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetarch/internal/cell"
	"hetarch/internal/device"
)

func TestWernerPair(t *testing.T) {
	p := NewWernerPair(0.9)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Fidelity()-0.9) > 1e-12 || math.Abs(p.Infidelity()-0.1) > 1e-12 {
		t.Fatal("fidelity accessors wrong")
	}
}

func TestWernerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWernerPair(1.5)
}

func TestDecohereMonotone(t *testing.T) {
	p := NewWernerPair(0.98)
	q := p.Decohere(10, 500, 500, 500, 500)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.Fidelity() >= p.Fidelity() {
		t.Fatal("decoherence should reduce fidelity")
	}
	// Longer exposure decays further.
	r := p.Decohere(100, 500, 500, 500, 500)
	if r.Fidelity() >= q.Fidelity() {
		t.Fatal("longer idle should decay more")
	}
	// Longer-lived memory decays less.
	s := p.Decohere(10, 50000, 50000, 50000, 50000)
	if s.Fidelity() <= q.Fidelity() {
		t.Fatal("longer T should decay less")
	}
}

func TestDecohereApproachesMixed(t *testing.T) {
	p := NewWernerPair(1.0)
	q := p.Decohere(1e7, 100, 100, 100, 100)
	// Under the Pauli-twirled idle model the fully-decohered pair is the
	// maximally mixed state, fidelity 1/4 with every Bell state.
	if math.Abs(q.Fidelity()-0.25) > 1e-6 {
		t.Fatalf("asymptotic fidelity %v, want 0.25", q.Fidelity())
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecohereOneSided(t *testing.T) {
	p := NewWernerPair(0.99)
	both := p.Decohere(5, 500, 500, 500, 500)
	one := p.Decohere(5, 500, 500, -1, -1)
	if one.Fidelity() <= both.Fidelity() {
		t.Fatal("one-sided decoherence should be milder")
	}
}

// refApplyPauliOneSide is applyPauliOneSide as it was written before the
// sums were unrolled, kept verbatim as the bit-level reference.
func refApplyPauliOneSide(p [4]float64, px, py, pz float64) [4]float64 {
	pi := 1 - px - py - pz
	var out [4]float64
	// index: 0 Φ+, 1 Φ−, 2 Ψ+, 3 Ψ−
	permX := [4]int{2, 3, 0, 1}
	permZ := [4]int{1, 0, 3, 2}
	permY := [4]int{3, 2, 1, 0}
	for i := 0; i < 4; i++ {
		out[i] += pi * p[i]
		out[permX[i]] += px * p[i]
		out[permY[i]] += py * p[i]
		out[permZ[i]] += pz * p[i]
	}
	return out
}

// TestApplyPauliOneSideMatchesReference pins the unrolled mix to the
// permutation loop bit for bit: each output must add its sources in the
// loop's order. Half the channels are symmetric (px = py = pz, as in
// DEJMPS's gate-error twirl), half asymmetric (as in idle decay).
func TestApplyPauliOneSideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 0; n < 100000; n++ {
		var p [4]float64
		total := 0.0
		for k := range p {
			p[k] = rng.Float64()
			total += p[k]
		}
		for k := range p {
			p[k] /= total
		}
		var px, py, pz float64
		if n%2 == 0 {
			px = rng.Float64() / 4
			py, pz = px, px
		} else {
			px, py, pz = rng.Float64()/3, rng.Float64()/3, rng.Float64()/3
		}
		got := applyPauliOneSide(p, px, py, pz)
		want := refApplyPauliOneSide(p, px, py, pz)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("input %d: p=%v (px,py,pz)=(%v,%v,%v): out[%d] = %v, reference %v",
					n, p, px, py, pz, k, got[k], want[k])
			}
		}
	}
}

func TestDEJMPSImprovesGoodPairs(t *testing.T) {
	a := NewWernerPair(0.9)
	out, pSucc := DEJMPS(a, a, 0)
	if pSucc <= 0.5 || pSucc > 1 {
		t.Fatalf("success probability %v", pSucc)
	}
	if out.Fidelity() <= 0.9 {
		t.Fatalf("DEJMPS should improve fidelity: %v", out.Fidelity())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDEJMPSKnownWernerFormula(t *testing.T) {
	// For Werner inputs the DEJMPS/BBPSSW recurrence is
	// F' = (F² + e²) / (F² + 2Fe + 5e²), e = (1−F)/3.
	for _, f := range []float64{0.6, 0.75, 0.9, 0.99} {
		e := (1 - f) / 3
		want := (f*f + e*e) / (f*f + 2*f*e + 5*e*e)
		out, _ := DEJMPS(NewWernerPair(f), NewWernerPair(f), 0)
		if math.Abs(out.Fidelity()-want) > 1e-12 {
			t.Fatalf("F=%v: got %v want %v", f, out.Fidelity(), want)
		}
	}
}

func TestDEJMPSMatchesExactSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randPair := func() Pair {
		// random Bell-diagonal with dominant Φ+
		var p Pair
		p.P[0] = 0.5 + 0.5*rng.Float64()
		rest := 1 - p.P[0]
		a := rng.Float64()
		b := rng.Float64() * (1 - a)
		p.P[1] = rest * a
		p.P[2] = rest * b
		p.P[3] = rest * (1 - a - b)
		return p
	}
	for i := 0; i < 25; i++ {
		a, b := randPair(), randPair()
		closed, pc := DEJMPS(a, b, 0)
		exact, pe := DEJMPSExact(a, b)
		if math.Abs(pc-pe) > 1e-9 {
			t.Fatalf("case %d: success prob closed %v vs exact %v (a=%v b=%v)", i, pc, pe, a, b)
		}
		for k := 0; k < 4; k++ {
			if math.Abs(closed.P[k]-exact.P[k]) > 1e-9 {
				t.Fatalf("case %d coeff %d: closed %v vs exact %v (a=%v b=%v)", i, k, closed.P[k], exact.P[k], a, b)
			}
		}
	}
}

func TestDEJMPSGateErrorPenalty(t *testing.T) {
	a := NewWernerPair(0.95)
	clean, _ := DEJMPS(a, a, 0)
	noisy, _ := DEJMPS(a, a, 0.01)
	if noisy.Fidelity() >= clean.Fidelity() {
		t.Fatal("gate error should reduce output fidelity")
	}
	if clean.Fidelity()-noisy.Fidelity() > 0.03 {
		t.Fatal("1% gate error should cost ~1.5% fidelity, not more")
	}
}

func TestPropertyDEJMPSOutputsValidPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Pair {
			var p Pair
			total := 0.0
			for k := 0; k < 4; k++ {
				p.P[k] = rng.Float64()
				total += p.P[k]
			}
			for k := 0; k < 4; k++ {
				p.P[k] /= total
			}
			return p
		}
		a, b := mk(), mk()
		out, pSucc := DEJMPS(a, b, 0)
		if pSucc == 0 {
			return true
		}
		return out.Validate() == nil && pSucc > 0 && pSucc <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func baseConfig(het bool) Config {
	cfg := DefaultConfig(12.5, het)
	cfg.Seed = 11
	cfg.GenRateKHz = 1000
	return cfg
}

func TestModuleRunsAndDistills(t *testing.T) {
	cfg := baseConfig(true)
	cfg.ConsumeAtThreshold = true
	m := NewModule(cfg)
	stats := m.Run(20000) // 20 ms
	if stats.Generated == 0 || stats.Stored == 0 {
		t.Fatal("source produced nothing")
	}
	if stats.Attempts == 0 || stats.Successes == 0 {
		t.Fatal("no distillation activity")
	}
	if stats.Delivered == 0 {
		t.Fatal("heterogeneous module should deliver threshold pairs at 1 MHz generation")
	}
	if stats.DeliveredRatePerSecond() <= 0 {
		t.Fatal("rate accounting broken")
	}
}

func TestModuleHeterogeneousBeatsHomogeneous(t *testing.T) {
	horizon := 30000.0
	het := NewModule(withConsume(baseConfig(true))).Run(horizon)
	hom := NewModule(withConsume(baseConfig(false))).Run(horizon)
	if het.Delivered <= hom.Delivered {
		t.Fatalf("heterogeneous (%d) should outdeliver homogeneous (%d)", het.Delivered, hom.Delivered)
	}
}

func withConsume(c Config) Config {
	c.ConsumeAtThreshold = true
	return c
}

func TestModuleLowRateHomogeneousStarves(t *testing.T) {
	// At 100 kHz generation the homogeneous module (Tc = 0.5 ms) cannot
	// reach the 99.5% target — pairs decay between arrivals (paper Fig. 4).
	cfg := withConsume(baseConfig(false))
	cfg.GenRateKHz = 100
	stats := NewModule(cfg).Run(50000)
	// The heterogeneous system still delivers.
	cfgHet := withConsume(baseConfig(true))
	cfgHet.GenRateKHz = 100
	statsHet := NewModule(cfgHet).Run(50000)
	if statsHet.Delivered == 0 {
		t.Fatal("heterogeneous module should still deliver at 100 kHz")
	}
	// Homogeneous output at 100 kHz is essentially starved: only rare
	// arrival bursts ever reach the target (paper: "fails to distill any
	// pairs to threshold fidelity").
	if stats.Delivered*20 > statsHet.Delivered {
		t.Fatalf("homogeneous delivered %d vs heterogeneous %d at 100 kHz; expected <5%%",
			stats.Delivered, statsHet.Delivered)
	}
}

func TestModuleTraceRecorded(t *testing.T) {
	cfg := baseConfig(true)
	cfg.TraceInterval = 1
	m := NewModule(cfg)
	stats := m.Run(100)
	if len(stats.Trace) < 90 {
		t.Fatalf("trace has %d points", len(stats.Trace))
	}
	if stats.Trace[0].BestInfidelity != 1 {
		t.Fatal("trace should start with empty output register")
	}
}

func TestModulePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := baseConfig(true)
	cfg.InputSlots = 1
	NewModule(cfg)
}

func TestModuleDeterministicForSeed(t *testing.T) {
	a := NewModule(withConsume(baseConfig(true))).Run(5000)
	b := NewModule(withConsume(baseConfig(true))).Run(5000)
	if a.Delivered != b.Delivered || a.Generated != b.Generated || a.Attempts != b.Attempts {
		t.Fatal("same seed should reproduce identical runs")
	}
}

// TestModuleGolden pins the module's outputs exactly: the six Stats
// counters in rate-measurement mode (Fig 4's setting) and a sha256 over the
// bits of every Fig 3 trace point. Event-loop rewrites must leave all of
// them unchanged.
func TestModuleGolden(t *testing.T) {
	counts := func(s Stats) [6]int {
		return [6]int{s.Generated, s.Stored, s.DroppedFull, s.Attempts, s.Successes, s.Delivered}
	}
	for _, tc := range []struct {
		het  bool
		rate float64
		want [6]int // Generated, Stored, DroppedFull, Attempts, Successes, Delivered
	}{
		{true, 100, [6]int{535, 535, 0, 398, 393, 128}},
		{true, 1000, [6]int{5008, 5008, 450, 3389, 3302, 1079}},
		{true, 10000, [6]int{50276, 50276, 45246, 3732, 3622, 1182}},
		{false, 100, [6]int{506, 506, 116, 358, 332, 0}},
		{false, 1000, [6]int{5034, 5034, 282, 4175, 4052, 450}},
		{false, 10000, [6]int{50077, 50077, 40675, 7464, 7255, 1724}},
	} {
		cfg := DefaultConfig(12.5, tc.het)
		cfg.Seed = 1
		cfg.GenRateKHz = tc.rate
		cfg.ConsumeAtThreshold = true
		if got := counts(NewModule(cfg).Run(5000)); got != tc.want {
			t.Errorf("het=%v %v kHz: counters %v, want %v", tc.het, tc.rate, got, tc.want)
		}
	}

	for _, tc := range []struct {
		het  bool
		want string
	}{
		{true, "28e455effcf5629955bc8233f4d17ef98fd20097ec17453cb2053d80e1cbacfd"},
		{false, "f357c6dc96a1b97bef311b45e428c7e14de745e5874b64cfd5f20165b95c1b9a"},
	} {
		cfg := DefaultConfig(12.5, tc.het)
		cfg.Seed = 1
		cfg.GenRateKHz = 1000
		cfg.TraceInterval = 2
		trace := NewModule(cfg).Run(100).Trace
		h := sha256.New()
		var b [8]byte
		for _, pt := range trace {
			for _, v := range []float64{pt.Time, pt.BestInfidelity} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("het=%v trace (%d points): sha256 %s, want %s", tc.het, len(trace), got, tc.want)
		}
	}
}

func TestTwirlPreservesFidelity(t *testing.T) {
	p := Pair{P: [4]float64{0.9, 0.06, 0.03, 0.01}}
	w := p.Twirl()
	if math.Abs(w.Fidelity()-0.9) > 1e-12 {
		t.Fatal("twirl changed fidelity")
	}
	if math.Abs(w.P[1]-w.P[2]) > 1e-12 || math.Abs(w.P[2]-w.P[3]) > 1e-12 {
		t.Fatal("twirl output not Werner")
	}
}

func TestBBPSSWImproves(t *testing.T) {
	a := NewWernerPair(0.85)
	out, ps := BBPSSW(a, a, 0)
	if out.Fidelity() <= 0.85 || ps <= 0.5 {
		t.Fatalf("BBPSSW failed: F=%v ps=%v", out.Fidelity(), ps)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDEJMPSBeatsBBPSSW(t *testing.T) {
	// From equal Werner inputs, one round ties (DEJMPS = BBPSSW on Werner
	// states), but iterated from the same budget DEJMPS pulls ahead because
	// its outputs concentrate instead of being re-twirled.
	start := NewWernerPair(0.9)
	d, b := start, start
	for round := 0; round < 3; round++ {
		d, _ = DEJMPS(d, d, 0)
		b, _ = BBPSSW(b, b, 0)
	}
	if d.Fidelity() <= b.Fidelity() {
		t.Fatalf("DEJMPS (%v) should beat BBPSSW (%v) after 3 rounds", d.Fidelity(), b.Fidelity())
	}
}

func TestBBPSSWMatchesDEJMPSOnFirstWernerRound(t *testing.T) {
	a := NewWernerPair(0.87)
	d, pd := DEJMPS(a, a, 0)
	b, pb := BBPSSW(a, a, 0)
	if math.Abs(pd-pb) > 1e-12 {
		t.Fatal("success probabilities should match for Werner inputs")
	}
	if math.Abs(d.Fidelity()-b.Fidelity()) > 1e-12 {
		t.Fatal("first-round fidelities should match for Werner inputs")
	}
}

func TestConfigFromCells(t *testing.T) {
	reg := cell.NewRegister(device.StandardStorage(12500, 10), device.StandardComputeNoReadout(500), 1)
	regChar, err := cell.CharacterizeRegister(reg)
	if err != nil {
		t.Fatal(err)
	}
	pc := cell.NewParCheck(device.StandardComputeNoReadout(500), device.StandardCompute(500))
	pcChar, err := cell.CharacterizeParCheck(pc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigFromCells(regChar, pcChar, true)
	if cfg.SwapTime != 0.1 || cfg.GateTime != 0.1 || cfg.OneQTime != 0.04 || cfg.ReadoutTime != 1 {
		t.Fatalf("timings not propagated: %+v", cfg)
	}
	// Storage lifetime recovered within 20% of the true 12.5 ms.
	if cfg.TsMicros < 10000 || cfg.TsMicros > 15000 {
		t.Fatalf("recovered Ts = %v us, want ~12500", cfg.TsMicros)
	}
	if cfg.GateError <= 0 || cfg.GateError > 1e-3 {
		t.Fatalf("gate error %v out of coherence-limited band", cfg.GateError)
	}
	// The derived configuration runs end to end.
	cfg.Seed = 5
	cfg.ConsumeAtThreshold = true
	stats := NewModule(cfg).Run(5000)
	if stats.Delivered == 0 {
		t.Fatal("derived configuration should distill successfully")
	}
}
