package stabsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCircuitBuilderCounts(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).CX(0, 1).M(0, 1).Detector(-1, -2).Observable(0, -1)
	if c.NumMeasurements() != 2 {
		t.Fatal("measurement count wrong")
	}
	if c.NumDetectors() != 1 {
		t.Fatal("detector count wrong")
	}
	if c.NumObservables() != 1 {
		t.Fatal("observable count wrong")
	}
}

func TestCircuitBuilderPanics(t *testing.T) {
	cases := []func(){
		func() { NewCircuit(0) },
		func() { NewCircuit(2).H(5) },
		func() { NewCircuit(2).CX(0) },
		func() { NewCircuit(2).CX(1, 1) },
		func() { NewCircuit(2).Detector(-1) },            // no measurements yet
		func() { NewCircuit(2).M(0).Detector(0) },        // non-negative ref
		func() { NewCircuit(2).M(0).Detector(-2) },       // too far back
		func() { NewCircuit(2).M(0).Observable(-1, -1) }, // bad index
		func() { NewCircuit(1).PauliChannel1(0.5, 0.4, 0.3, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestNoiseProbabilityValidated: every builder that takes a noise
// probability panics on NaN or a value outside [0, 1], and PauliChannel1 on
// such a component even when the sum is in range. Unchecked, MFlip(NaN)
// flipped every other shot, MFlip(-0.2) never flipped and XError(1.5)
// always fired.
func TestNoiseProbabilityValidated(t *testing.T) {
	builders := map[string]func(c *Circuit, p float64){
		"MFlip":            func(c *Circuit, p float64) { c.MFlip(p, 0) },
		"MR":               func(c *Circuit, p float64) { c.MR(p, 0) },
		"Depolarize1":      func(c *Circuit, p float64) { c.Depolarize1(p, 0) },
		"Depolarize2":      func(c *Circuit, p float64) { c.Depolarize2(p, 0, 1) },
		"XError":           func(c *Circuit, p float64) { c.XError(p, 0) },
		"YError":           func(c *Circuit, p float64) { c.YError(p, 0) },
		"ZError":           func(c *Circuit, p float64) { c.ZError(p, 0) },
		"PauliChannel1 px": func(c *Circuit, p float64) { c.PauliChannel1(p, 0, 0, 0) },
		"PauliChannel1 py": func(c *Circuit, p float64) { c.PauliChannel1(0, p, 0, 0) },
		"PauliChannel1 pz": func(c *Circuit, p float64) { c.PauliChannel1(0, 0, p, 0) },
	}
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return false
	}
	for name, build := range builders {
		for _, p := range []float64{math.NaN(), -0.2, -5e-324, 1.5, math.Inf(1), math.Inf(-1)} {
			if !panics(func() { build(NewCircuit(2), p) }) {
				t.Errorf("%s(%v) accepted", name, p)
			}
		}
		for _, p := range []float64{0, 5e-324, 0.5, 1} {
			if panics(func() { build(NewCircuit(2), p) }) {
				t.Errorf("%s(%v) rejected", name, p)
			}
		}
	}
	if !panics(func() { NewCircuit(1).PauliChannel1(-0.5, 0.7, 0.1, 0) }) {
		t.Error("PauliChannel1(-0.5, 0.7, 0.1) accepted")
	}
}

func TestFrameNoiselessAllQuiet(t *testing.T) {
	c := NewCircuit(4)
	c.H(0).CX(0, 1).CX(1, 2).CX(2, 3).M(0, 1, 2, 3)
	c.Detector(-1, -2).Detector(-2, -3).Detector(-3, -4)
	fs := NewFrameSampler(c, rand.New(rand.NewSource(1)))
	for i := 0; i < 20; i++ {
		res := fs.Sample()
		for _, d := range res.Detectors {
			if d {
				t.Fatal("noiseless detector fired")
			}
		}
	}
}

func TestFrameDeterministicXError(t *testing.T) {
	c := NewCircuit(1)
	c.XError(1.0, 0).M(0).Detector(-1)
	fs := NewFrameSampler(c, rand.New(rand.NewSource(1)))
	res := fs.Sample()
	if !res.Detectors[0] {
		t.Fatal("certain X error should fire detector")
	}
	if !res.MeasurementFlips[0] {
		t.Fatal("measurement flip not recorded")
	}
}

func TestFrameZErrorInvisible(t *testing.T) {
	c := NewCircuit(1)
	c.ZError(1.0, 0).M(0).Detector(-1)
	fs := NewFrameSampler(c, rand.New(rand.NewSource(1)))
	if fs.Sample().Detectors[0] {
		t.Fatal("Z error should be invisible to Z measurement")
	}
}

func TestFrameHadamardConvertsZtoX(t *testing.T) {
	// Z error then H => X error => visible.
	c := NewCircuit(1)
	c.ZError(1.0, 0).H(0).M(0).Detector(-1)
	fs := NewFrameSampler(c, rand.New(rand.NewSource(1)))
	if !fs.Sample().Detectors[0] {
		t.Fatal("H should rotate Z error into X")
	}
}

func TestFrameCXPropagation(t *testing.T) {
	// X on control propagates to target through CX.
	c := NewCircuit(2)
	c.XError(1.0, 0).CX(0, 1).M(1).Detector(-1)
	fs := NewFrameSampler(c, rand.New(rand.NewSource(1)))
	if !fs.Sample().Detectors[0] {
		t.Fatal("X should copy through CX control")
	}
	// Z on target propagates to control.
	c2 := NewCircuit(2)
	c2.ZError(1.0, 1).CX(0, 1).H(0).M(0).Detector(-1)
	fs2 := NewFrameSampler(c2, rand.New(rand.NewSource(1)))
	if !fs2.Sample().Detectors[0] {
		t.Fatal("Z should copy through CX target")
	}
}

func TestFrameSwapMovesErrors(t *testing.T) {
	c := NewCircuit(2)
	c.XError(1.0, 0).Swap(0, 1).M(0, 1).Detector(-2).Detector(-1)
	fs := NewFrameSampler(c, rand.New(rand.NewSource(1)))
	res := fs.Sample()
	if res.Detectors[0] || !res.Detectors[1] {
		t.Fatalf("SWAP should move the error: %v", res.Detectors)
	}
}

func TestFrameMRClearsFrame(t *testing.T) {
	c := NewCircuit(1)
	c.XError(1.0, 0).MR(0, 0).M(0).Detector(-1)
	fs := NewFrameSampler(c, rand.New(rand.NewSource(1)))
	res := fs.Sample()
	if res.Detectors[0] {
		t.Fatal("MR should clear the frame; second measurement clean")
	}
	if !res.MeasurementFlips[0] {
		t.Fatal("first measurement should have flipped")
	}
}

func TestFrameReadoutFlipIsClassical(t *testing.T) {
	// Readout flip on MR must not corrupt the post-reset state.
	c := NewCircuit(1)
	c.MFlip(1.0, 0).M(0).Detector(-1)
	fs := NewFrameSampler(c, rand.New(rand.NewSource(1)))
	res := fs.Sample()
	if !res.MeasurementFlips[0] {
		t.Fatal("first readout should always flip")
	}
	if res.Detectors[0] {
		t.Fatal("second clean measurement should agree with reference")
	}
}

func TestFrameObservable(t *testing.T) {
	c := NewCircuit(2)
	c.XError(1.0, 0).M(0, 1).Observable(0, -2).Observable(1, -1)
	fs := NewFrameSampler(c, rand.New(rand.NewSource(1)))
	res := fs.Sample()
	if !res.Observables[0] || res.Observables[1] {
		t.Fatalf("observables wrong: %v", res.Observables)
	}
}

// repCodeCircuit builds a 3-qubit bit-flip repetition-code memory with r
// rounds of parity checks under X noise with probability p per data qubit
// per round. Qubits 0,1,2 data; 3,4 ancilla.
func repCodeCircuit(p float64, rounds int) *Circuit {
	c := NewCircuit(5)
	for r := 0; r < rounds; r++ {
		c.XError(p, 0, 1, 2)
		c.CX(0, 3, 1, 4)
		c.CX(1, 3, 2, 4)
		c.MR(0, 3, 4)
		if r == 0 {
			c.Detector(-2)
			c.Detector(-1)
		} else {
			c.Detector(-2, -4)
			c.Detector(-1, -3)
		}
	}
	c.M(0, 1, 2)
	c.Detector(-3, -2, -5)
	c.Detector(-2, -1, -4)
	c.Observable(0, -3)
	return c
}

func TestRepetitionCodeDetectorContract(t *testing.T) {
	c := repCodeCircuit(0.1, 3)
	tr := NewTableauRunner(c, rand.New(rand.NewSource(2)))
	if !tr.VerifyDetectorsDeterministic(5) {
		t.Fatal("repetition code detectors must be deterministic without noise")
	}
}

func TestFrameMatchesTableauOnRepetitionCode(t *testing.T) {
	// Compare detector firing rates between the two backends.
	c := repCodeCircuit(0.08, 2)
	shots := 4000
	fRate := detectorRates(t, NewFrameSampler(c, rand.New(rand.NewSource(3))).Sample, shots, c.NumDetectors())
	tr := NewTableauRunner(c, rand.New(rand.NewSource(4)))
	tRate := detectorRates(t, tr.Sample, shots, c.NumDetectors())
	for i := range fRate {
		if math.Abs(fRate[i]-tRate[i]) > 0.04 {
			t.Errorf("detector %d rate mismatch: frame %.3f vs tableau %.3f", i, fRate[i], tRate[i])
		}
	}
}

func detectorRates(t *testing.T, sample func() ShotResult, shots, nDet int) []float64 {
	t.Helper()
	counts := make([]float64, nDet)
	for s := 0; s < shots; s++ {
		res := sample()
		for i, d := range res.Detectors {
			if d {
				counts[i]++
			}
		}
	}
	for i := range counts {
		counts[i] /= float64(shots)
	}
	return counts
}

func TestFrameMatchesTableauObservableRate(t *testing.T) {
	c := repCodeCircuit(0.15, 2)
	shots := 4000
	count := func(sample func() ShotResult) float64 {
		n := 0.0
		for s := 0; s < shots; s++ {
			if sample().Observables[0] {
				n++
			}
		}
		return n / float64(shots)
	}
	fr := count(NewFrameSampler(c, rand.New(rand.NewSource(5))).Sample)
	tr := count(NewTableauRunner(c, rand.New(rand.NewSource(6))).Sample)
	if math.Abs(fr-tr) > 0.04 {
		t.Fatalf("observable rate mismatch: frame %.3f vs tableau %.3f", fr, tr)
	}
}

func TestPropertyFrameTableauAgreeOnRandomCircuits(t *testing.T) {
	// Random small Clifford circuits with mid-circuit measurements used as
	// detector references in same-qubit repeated-measurement pairs, which
	// are always deterministic.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3
		c := NewCircuit(n)
		for i := 0; i < 12; i++ {
			switch rng.Intn(4) {
			case 0:
				c.H(rng.Intn(n))
			case 1:
				c.S(rng.Intn(n))
			case 2:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.CX(a, b)
				}
			case 3:
				c.Depolarize1(0.1, rng.Intn(n))
			}
		}
		// Deterministic detector: measure a qubit twice, with depolarizing
		// noise in between (noise is skipped in the reference run, so the
		// detector contract still holds).
		q := rng.Intn(n)
		c.M(q).Depolarize1(0.2, q).M(q).Detector(-1, -2)
		shots := 1200
		fr := 0.0
		fs := NewFrameSampler(c, rand.New(rand.NewSource(seed+1)))
		for s := 0; s < shots; s++ {
			if fs.Sample().Detectors[0] {
				fr++
			}
		}
		tr := NewTableauRunner(c, rand.New(rand.NewSource(seed+2)))
		tcount := 0.0
		for s := 0; s < shots; s++ {
			if tr.Sample().Detectors[0] {
				tcount++
			}
		}
		return math.Abs(fr/float64(shots)-tcount/float64(shots)) < 0.07
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestIdlePauliChannel(t *testing.T) {
	px, py, pz := IdlePauliChannel(0, 100, 100)
	if px != 0 || py != 0 || pz != 0 {
		t.Fatal("zero duration should be noiseless")
	}
	px, py, pz = IdlePauliChannel(10, 100, 150)
	if px != py {
		t.Fatal("px should equal py")
	}
	wantX := (1 - math.Exp(-0.1)) / 4
	if math.Abs(px-wantX) > 1e-12 {
		t.Fatalf("px = %v want %v", px, wantX)
	}
	wantZ := (1-math.Exp(-10.0/150))/2 - wantX
	if math.Abs(pz-wantZ) > 1e-12 {
		t.Fatalf("pz = %v want %v", pz, wantZ)
	}
	if px+py+pz > 1 {
		t.Fatal("total probability exceeds 1")
	}
	// T2 clamp: T2 > 2 T1 behaves as T2 = 2 T1.
	_, _, pzClamped := IdlePauliChannel(10, 100, 1000)
	_, _, pzLimit := IdlePauliChannel(10, 100, 200)
	if math.Abs(pzClamped-pzLimit) > 1e-12 {
		t.Fatal("T2 clamp missing")
	}
}

func TestCircuitAppend(t *testing.T) {
	a := NewCircuit(2)
	a.M(0)
	b := NewCircuit(2)
	b.M(1)
	a.Append(b)
	a.Detector(-1, -2) // references records from both halves
	if a.NumMeasurements() != 2 || a.NumDetectors() != 1 {
		t.Fatal("append counts wrong")
	}
	fs := NewFrameSampler(a, rand.New(rand.NewSource(1)))
	if fs.Sample().Detectors[0] {
		t.Fatal("clean append sample should not fire")
	}
}

func TestVerifyDetectorsDeterministicCatchesBadCircuit(t *testing.T) {
	// A detector over a genuinely random measurement violates the contract.
	c := NewCircuit(1)
	c.H(0).M(0).Detector(-1)
	tr := NewTableauRunner(c, rand.New(rand.NewSource(3)))
	if tr.VerifyDetectorsDeterministic(12) {
		t.Fatal("random detector should be flagged as nondeterministic")
	}
}

func TestTableauRunnerResetOp(t *testing.T) {
	// R collapses and clears; a detector after reset+measure never fires.
	c := NewCircuit(1)
	c.H(0).R(0).M(0).Detector(-1)
	tr := NewTableauRunner(c, rand.New(rand.NewSource(4)))
	for i := 0; i < 20; i++ {
		if tr.Sample().Detectors[0] {
			t.Fatal("reset qubit should always measure 0")
		}
	}
	fs := NewFrameSampler(c, rand.New(rand.NewSource(4)))
	for i := 0; i < 20; i++ {
		if fs.Sample().Detectors[0] {
			t.Fatal("frame sampler disagrees on reset")
		}
	}
}

func TestSDagMatchesThreeS(t *testing.T) {
	// SDag is its own op in the frame sampler: Z-component behavior of S
	// and SDag agree (sign-free frames).
	mk := func(useDag bool) *Circuit {
		c := NewCircuit(1)
		c.XError(1.0, 0)
		if useDag {
			c.SDag(0)
		} else {
			c.S(0).S(0).S(0)
		}
		c.H(0).M(0).Detector(-1)
		return c
	}
	a := NewFrameSampler(mk(true), rand.New(rand.NewSource(1))).Sample()
	b := NewFrameSampler(mk(false), rand.New(rand.NewSource(1))).Sample()
	if a.Detectors[0] != b.Detectors[0] {
		t.Fatal("SDag and S^3 disagree")
	}
}
