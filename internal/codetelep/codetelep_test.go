package codetelep

import (
	"context"
	"strings"
	"testing"

	"hetarch/internal/qec"
)

func fastParams(a, b *qec.Code, ts float64, het bool) Params {
	p := DefaultParams(a, b, ts, het)
	p.Shots = 2000
	return p
}

func TestEvaluateProducesBudget(t *testing.T) {
	sc3, _ := qec.Surface(3)
	sc4, _ := qec.Surface(4)
	p := fastParams(sc3, sc4, 50, true)
	p.NativeA, p.NativeB = true, true
	r, err := EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.DistillationFailed {
		t.Fatal("heterogeneous distillation should succeed at 1000 kHz")
	}
	if r.LogicalErrorProbability <= 0 || r.LogicalErrorProbability > 0.5 {
		t.Fatalf("probability %v out of range", r.LogicalErrorProbability)
	}
	// Delivered pairs meet the 0.995 target; the small shortfall reflects
	// the modeled staleness of EPs buffered while a CT attempt assembles.
	if r.EPFidelityAchieved < 0.99 {
		t.Fatalf("EP fidelity %v implausibly low", r.EPFidelityAchieved)
	}
	s := r.Budget.String()
	for _, want := range []string{"cat-generation", "logical-A", "logical-B", "TOTAL"} {
		if !strings.Contains(s, want) {
			t.Fatalf("budget missing %q:\n%s", want, s)
		}
	}
}

func TestHeterogeneousBeatsHomogeneousForEveryPair(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	sc3, _ := qec.Surface(3)
	sc4, _ := qec.Surface(4)
	codes := []struct {
		name   string
		code   *qec.Code
		native bool
	}{
		{"RM15", qec.ReedMuller15(), false},
		{"Steane", qec.Steane(), false},
		{"SC3", sc3, true},
		{"SC4", sc4, true},
	}
	for i := range codes {
		for j := i + 1; j < len(codes); j++ {
			a, b := codes[i], codes[j]
			ph := fastParams(a.code, b.code, 50, true)
			ph.NativeA, ph.NativeB = a.native, b.native
			rh, err := EvaluateContext(context.Background(), ph)
			if err != nil {
				t.Fatal(err)
			}
			pm := fastParams(a.code, b.code, 50, false)
			pm.NativeA, pm.NativeB = a.native, b.native
			rm, err := EvaluateContext(context.Background(), pm)
			if err != nil {
				t.Fatal(err)
			}
			if rh.LogicalErrorProbability > rm.LogicalErrorProbability {
				t.Errorf("%s&%s: het %.3f should not exceed hom %.3f",
					a.name, b.name, rh.LogicalErrorProbability, rm.LogicalErrorProbability)
			}
		}
	}
}

func TestStorageLifetimeImprovesCT(t *testing.T) {
	sc3, _ := qec.Surface(3)
	sc4, _ := qec.Surface(4)
	run := func(ts float64) float64 {
		p := fastParams(sc3, sc4, ts, true)
		p.NativeA, p.NativeB = true, true
		p.Shots = 6000
		r, err := EvaluateContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return r.LogicalErrorProbability
	}
	short := run(1)
	long := run(50)
	if long >= short {
		t.Fatalf("Ts=50ms (%v) should beat Ts=1ms (%v)", long, short)
	}
}

func TestLowRateHomogeneousDistillationFails(t *testing.T) {
	sc3, _ := qec.Surface(3)
	sc4, _ := qec.Surface(4)
	p := fastParams(sc3, sc4, 50, false)
	p.NativeA, p.NativeB = true, true
	p.EPRateKHz = 100 // below the homogeneous viability point
	r, err := EvaluateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.DistillationFailed {
		t.Fatal("homogeneous distillation at 100 kHz should fail")
	}
	if r.LogicalErrorProbability != 0.5 {
		t.Fatal("failed distillation should yield a mixed CT state")
	}
}

func TestNilCodeRejected(t *testing.T) {
	if _, err := EvaluateContext(context.Background(), Params{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestBiggerCodesCostMoreCAT(t *testing.T) {
	// Same architecture, larger total code size -> longer CAT generation.
	sc3, _ := qec.Surface(3)
	small := fastParams(qec.Steane(), sc3, 50, true)
	small.NativeB = true
	big := fastParams(qec.ReedMuller15(), qec.TriColor5(), 50, true)
	rs, err := EvaluateContext(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := EvaluateContext(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	durOf := func(r *Result) float64 {
		for _, it := range r.Budget.Items {
			if strings.HasPrefix(it.Name, "cat-generation") {
				return it.Duration
			}
		}
		t.Fatal("cat item missing")
		return 0
	}
	if durOf(rb) <= durOf(rs) {
		t.Fatal("larger codes should need longer CAT generation")
	}
}
