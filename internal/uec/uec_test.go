package uec

import (
	"context"
	"math/rand"
	"testing"

	"hetarch/internal/qec"
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

func codes(t *testing.T) map[string]*qec.Code {
	t.Helper()
	sc3, _ := qec.Surface(3)
	sc4, _ := qec.Surface(4)
	return map[string]*qec.Code{
		"Steane":    qec.Steane(),
		"RM15":      qec.ReedMuller15(),
		"TriColor5": qec.TriColor5(),
		"SC3":       sc3,
		"SC4":       sc4,
	}
}

func TestDetectorContract(t *testing.T) {
	for name, code := range codes(t) {
		for _, het := range []bool{true, false} {
			for _, basis := range []byte{'Z', 'X'} {
				p := DefaultParams(code, 50, het)
				p.Basis = basis
				e, err := New(p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tr := stabsim.NewTableauRunner(e.Circuit, rand.New(rand.NewSource(1)))
				if !tr.VerifyDetectorsDeterministic(3) {
					t.Errorf("%s het=%v basis=%c: nondeterministic detectors", name, het, basis)
				}
			}
		}
	}
}

func TestNoiselessIsPerfect(t *testing.T) {
	for name, code := range codes(t) {
		p := DefaultParams(code, 50, true)
		p.P2 = 0
		p.SwapError = 0
		p.TsMicros = 1e12
		p.TcMicros = 1e12
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, e, 200, 3, 1)
		if res.LogicalErrors != 0 {
			t.Errorf("%s: %d errors without noise", name, res.LogicalErrors)
		}
	}
}

func TestSerializedCycleDurationScalesWithCode(t *testing.T) {
	mk := func(c *qec.Code) float64 {
		e, err := New(DefaultParams(c, 50, true))
		if err != nil {
			t.Fatal(err)
		}
		return e.CycleDuration
	}
	steane := mk(qec.Steane())
	rm := mk(qec.ReedMuller15())
	if rm <= steane {
		t.Fatalf("RM15 cycle (%v) should be longer than Steane (%v)", rm, steane)
	}
	// Steane: 6 checks of weight 4: 6*(4*0.3 + 1), plus 3*2*0.04 for the X
	// checks' ancilla Hadamards, plus 6*2*0.1 for the flag couplings.
	want := 6*(4*0.3+1.0) + 3*2*0.04 + 6*2*0.1
	if diff := steane - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Steane cycle duration %v, want %v", steane, want)
	}
}

func TestStorageLifetimeImprovesHeterogeneous(t *testing.T) {
	code := qec.Steane()
	rateAt := func(tsMillis float64) float64 {
		p := DefaultParams(code, tsMillis, true)
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return run(t, e, 8000, 7, 1).LogicalErrorRate()
	}
	short := rateAt(1)
	long := rateAt(50)
	if long >= short {
		t.Fatalf("Ts=50ms (%v) should beat Ts=1ms (%v)", long, short)
	}
}

func TestNonPlanarCodesFavorHeterogeneous(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	// Paper Table 3: RM15, color and Steane codes do better on the UEC
	// module than on the routed homogeneous lattice.
	for _, name := range []string{"RM15", "TriColor5", "Steane"} {
		code := codes(t)[name]
		het, err := New(DefaultParams(code, 50, true))
		if err != nil {
			t.Fatal(err)
		}
		hom, err := New(DefaultParams(code, 50, false))
		if err != nil {
			t.Fatal(err)
		}
		shots := 6000
		hetRate := run(t, het, shots, 5, 1).LogicalErrorRate()
		homRate := run(t, hom, shots, 5, 1).LogicalErrorRate()
		if hetRate >= homRate {
			t.Errorf("%s: het %.4f should beat hom %.4f", name, hetRate, homRate)
		}
	}
}

func TestSurfaceCodeFavorsHomogeneous(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	// Paper Table 3: the square-native surface code does better on the
	// parallel homogeneous lattice than serialized on the UEC module.
	sc3, _ := qec.Surface(3)
	het, err := New(DefaultParams(sc3, 50, true))
	if err != nil {
		t.Fatal(err)
	}
	homParams := DefaultParams(sc3, 50, false)
	homParams.NativePlacement = true
	hom, err := New(homParams)
	if err != nil {
		t.Fatal(err)
	}
	shots := 8000
	hetRate := run(t, het, shots, 9, 1).LogicalErrorRate()
	homRate := run(t, hom, shots, 9, 1).LogicalErrorRate()
	if homRate >= hetRate {
		t.Errorf("SC3: hom %.4f should beat het %.4f", homRate, hetRate)
	}
}

func TestRejectsOversizedCode(t *testing.T) {
	big, _ := qec.Surface(7) // 49 qubits
	if _, err := New(DefaultParams(big, 50, true)); err == nil {
		t.Fatal("expected size rejection")
	}
}

// A repeated Z check leaves half the 2^k syndromes unreachable, so the
// lookup table is incomplete and the parity-table decode would be wrong.
func TestRejectsDependentChecks(t *testing.T) {
	code := *qec.Steane()
	code.ZStabs = append(code.ZStabs[:len(code.ZStabs):len(code.ZStabs)], code.ZStabs[0])
	if _, err := New(DefaultParams(&code, 50, true)); err == nil {
		t.Fatal("expected dependent-check rejection")
	}
}

func TestRejectsBadBasis(t *testing.T) {
	p := DefaultParams(qec.Steane(), 50, true)
	p.Basis = '?'
	if _, err := New(p); err == nil {
		t.Fatal("expected basis rejection")
	}
	if _, err := New(Params{}); err == nil {
		t.Fatal("expected nil-code rejection")
	}
}

func TestErrorRateIncreasesWithGateError(t *testing.T) {
	code := qec.Steane()
	rateAt := func(p2 float64) float64 {
		p := DefaultParams(code, 50, true)
		p.P2 = p2
		p.SwapError = p2
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return run(t, e, 6000, 13, 1).LogicalErrorRate()
	}
	low := rateAt(0.002)
	high := rateAt(0.05)
	if low >= high {
		t.Fatalf("gate-error scaling broken: %.4f (0.2%%) vs %.4f (5%%)", low, high)
	}
}

func TestBothBasesRun(t *testing.T) {
	code := qec.Steane()
	for _, basis := range []byte{'Z', 'X'} {
		p := DefaultParams(code, 50, true)
		p.Basis = basis
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, e, 1000, 17, 1)
		if res.Shots != 1000 {
			t.Fatal("accounting wrong")
		}
		rate := res.LogicalErrorRate()
		if rate < 0 || rate > 0.6 {
			t.Fatalf("basis %c: implausible rate %v", basis, rate)
		}
	}
}

func TestPseudothresholdSteane(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo bisection")
	}
	base := DefaultParams(qec.Steane(), 50, true)
	pt, ok, err := PseudothresholdContext(context.Background(), base, 3000, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Steane on the UEC should have a pseudothreshold")
	}
	if pt < 1e-4 || pt > 0.3 {
		t.Fatalf("pseudothreshold %v outside sane range", pt)
	}
	// Verify break-even actually holds just below the estimate.
	p := base
	p.P2 = pt / 3
	p.SwapError = pt / 6
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rate := run(t, e, 4000, 23, 1).LogicalErrorRate()
	if rate >= pt/3*2 {
		t.Fatalf("below PT the logical rate (%v) should be comfortably below physical (%v)", rate, pt/3)
	}
}

func TestAssignmentRespectsCapacity(t *testing.T) {
	code := qec.TriColor5() // 19 qubits
	asg, err := Assign(code, 3, 10, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := asg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Assign(code, 1, 10, 0.1, 0.1); err == nil {
		t.Fatal("19 qubits cannot fit one 10-mode register")
	}
}

func TestAssignmentMatchesBruteForceOnSteane(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force")
	}
	code := qec.Steane()
	asg, err := Assign(code, 2, 10, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got := CycleDurationUnder(code, asg.Register, 0.1, 0.1)
	// True brute force over all 2^7 assignments (capacity 10 is never
	// binding for 7 qubits).
	best := 1e18
	for mask := 0; mask < 1<<7; mask++ {
		a := make([]int, 7)
		for q := 0; q < 7; q++ {
			a[q] = mask >> uint(q) & 1
		}
		if c := CycleDurationUnder(code, a, 0.1, 0.1); c < best {
			best = c
		}
	}
	if got > best+1e-9 {
		t.Fatalf("descent found %v, brute force %v", got, best)
	}
}

func TestOptimizedScheduleShortensCycle(t *testing.T) {
	for _, code := range []*qec.Code{qec.Steane(), qec.ReedMuller15(), qec.TriColor5()} {
		base := DefaultParams(code, 50, true)
		eNaive, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		base.OptimizedSchedule = true
		eOpt, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		if eOpt.CycleDuration >= eNaive.CycleDuration {
			t.Fatalf("%s: optimized cycle %.3f should beat naive %.3f",
				code.Name, eOpt.CycleDuration, eNaive.CycleDuration)
		}
		if eOpt.Assignment == nil {
			t.Fatal("assignment missing")
		}
	}
}

func TestOptimizedScheduleImprovesLowTsRates(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	// The shorter cycle reduces storage idling, which matters most at
	// short storage lifetimes.
	code := qec.ReedMuller15()
	rateAt := func(opt bool) float64 {
		p := DefaultParams(code, 0.5, true) // deliberately short Ts
		p.OptimizedSchedule = opt
		e, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return run(t, e, 12000, 31, 1).LogicalErrorRate()
	}
	naive := rateAt(false)
	opt := rateAt(true)
	if opt >= naive {
		t.Fatalf("optimized schedule (%.4f) should beat naive (%.4f) at short Ts", opt, naive)
	}
}
