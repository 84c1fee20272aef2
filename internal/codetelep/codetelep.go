// Package codetelep implements the code-teleportation (CT) module of
// Section 4.3: preparation of the logical Bell resource state
// |Φ+⟩_AB = (|0_A 0_B⟩ + |1_A 1_B⟩)/√2 between two different stabilizer
// codes, built from five sub-modules — an entanglement-distillation module,
// two CAT-state generators (SeqOp cells), and two universal-error-correction
// modules holding the logical |+⟩ states.
//
// Following the paper, the module-level error model composes independently
// simulated sub-module error rates: the distillation module is simulated
// event-driven (package distill), the UEC modules by stabilizer Monte Carlo
// (package uec), the CAT generator from SeqOp characterization numbers and
// compounded EP/idle infidelities, and the total is the sum of the
// independent rates (capped at the fully-mixed value 1/2).
package codetelep

import (
	"context"
	"fmt"
	"math"

	"hetarch/internal/core"
	"hetarch/internal/distill"
	"hetarch/internal/obs/stats"
	"hetarch/internal/qec"
	"hetarch/internal/stabsim"
	"hetarch/internal/uec"
)

// Params configures one CT-state preparation evaluation.
type Params struct {
	CodeA, CodeB *qec.Code
	// NativeA/NativeB mark lattice-native codes (surface codes) for the
	// homogeneous baseline's placement.
	NativeA, NativeB bool

	Heterogeneous bool
	TsMillis      float64
	TcMicros      float64

	EPRateKHz        float64 // raw EP generation rate (paper: 1000 kHz)
	EPRawInfidelity  float64 // raw EP infidelity (microwave-optical regime)
	TargetEPFidelity float64 // distillation target (0.995)

	P2          float64 // two-qubit gate error
	SwapTime    float64 // µs
	GateTime    float64 // µs
	ReadoutTime float64 // µs

	VerifyChecks int // CAT verification parity checks (each consumes an EP)

	Shots int // Monte Carlo shots per UEC sub-module evaluation
	Seed  int64

	// Workers is the mc engine's goroutine count for the UEC sub-module
	// runs and the distillation ensemble (<= 0 means runtime.NumCPU()).
	// Results are worker-count independent.
	Workers int
}

// DefaultParams returns the Section 4.3 setup for a code pair.
func DefaultParams(a, b *qec.Code, tsMillis float64, heterogeneous bool) Params {
	return Params{
		CodeA:            a,
		CodeB:            b,
		Heterogeneous:    heterogeneous,
		TsMillis:         tsMillis,
		TcMicros:         500,
		EPRateKHz:        1000,
		EPRawInfidelity:  0.03,
		TargetEPFidelity: 0.995,
		P2:               0.01,
		SwapTime:         0.1,
		GateTime:         0.1,
		ReadoutTime:      1.0,
		VerifyChecks:     2,
		Shots:            20000,
		Seed:             1,
	}
}

// Result is the composed CT-state error budget.
type Result struct {
	Budget             core.ErrorBudget
	DistillationFailed bool
	// LogicalErrorProbability is the budget total, saturated at 1/2 (a CT
	// state with error 1/2 is indistinguishable from the maximally mixed
	// logical state).
	LogicalErrorProbability float64
	// EPFidelityAchieved is the distillation sub-module's delivered
	// fidelity target (0 when it failed).
	EPFidelityAchieved float64
	// CatAcceptRate is the CAT generator's verification acceptance rate
	// (throughput, not fidelity: rejected cats are regenerated).
	CatAcceptRate float64
	// UECErrors/UECShots pool the logical-error counts of the four UEC
	// sub-module Monte Carlo runs (two sides x two bases, equal shots) —
	// the sampled part of the error budget, from which CI derives its
	// confidence interval.
	UECErrors int64
	UECShots  int64
}

// CI returns a confidence interval on LogicalErrorProbability, or nil when
// no interval is meaningful (distillation failed, so the probability is the
// deterministic 1/2 ceiling, or no Monte Carlo shots were sampled). Only
// the UEC sub-modules contribute sampling noise that scales with Shots, so
// the interval is the pooled Wilson interval of their four equal-shot runs,
// scaled to the sum of the four rates and shifted by the budget's
// deterministic remainder.
func (r *Result) CI(confidence float64) *stats.Interval {
	if r.DistillationFailed || r.UECShots == 0 {
		return nil
	}
	uecSum := 4 * float64(r.UECErrors) / float64(r.UECShots)
	iv := stats.BinomialCI(r.UECErrors, r.UECShots, confidence).
		Scaled(4).
		Shifted(r.LogicalErrorProbability-uecSum, 0.5)
	return &iv
}

// EvaluateContext composes the CT module error model for the parameter
// set. Cancellation aborts the Monte Carlo sub-module runs (distillation
// ensemble and the four UEC evaluations) and returns the engine's error
// rather than a half-composed budget.
func EvaluateContext(ctx context.Context, p Params) (*Result, error) {
	if p.CodeA == nil || p.CodeB == nil {
		return nil, fmt.Errorf("codetelep: nil code")
	}
	res := &Result{}

	// --- Step 1: entanglement distillation sub-module.
	epInfidelity, epRate, ok, err := p.distillEPs(ctx)
	if err != nil {
		return nil, err
	}
	if !ok {
		res.DistillationFailed = true
		res.LogicalErrorProbability = 0.5
		res.Budget.Add("distillation (failed)", 0.5, 0)
		return res, nil
	}
	res.EPFidelityAchieved = 1 - epInfidelity

	nA, nB := p.CodeA.N, p.CodeB.N
	catSize := nA + nB

	// A CT attempt consumes 1 + VerifyChecks EPs, which must accumulate in
	// memory before the attempt can run: earlier deliveries decay at the
	// memory lifetime while waiting for the rest. This staleness is the
	// rate-matching penalty that dooms slow distillers even when individual
	// pairs nominally reach the target (the paper's homogeneous failures).
	epCount := 1 + p.VerifyChecks
	waitMemT := p.TsMillis * 1000
	if !p.Heterogeneous {
		waitMemT = p.TcMicros
	}
	if epRate > 0 && epCount > 1 {
		spacingMicros := 1e6 / epRate
		avgWait := spacingMicros * float64(epCount-1) / 2
		stale := distill.NewWernerPair(1-epInfidelity).
			Decohere(avgWait, waitMemT, waitMemT, waitMemT, waitMemT)
		epInfidelity = stale.Infidelity()
	}
	res.EPFidelityAchieved = 1 - epInfidelity

	// --- Steps 2+4: CAT generation across both sides (SeqOp cells),
	// simulated: the generator Monte Carlo (catgen.go) grows the GHZ chain
	// with gate noise, injects the bridging EP's infidelity at the seam,
	// idles in memory, verifies with the global X^n check plus Z-probe
	// parity checks, and post-selects. The budget charges the undetected
	// residual among accepted cats plus the infidelity of the extra EPs
	// the verification consumes.
	storedCNOT := 4*p.SwapTime + p.GateTime // load×2 + CX + store×2 timing
	catDuration := float64(catSize)*storedCNOT + float64(p.VerifyChecks)*(p.GateTime+p.ReadoutTime)
	memT := p.TsMillis * 1000
	if !p.Heterogeneous {
		memT = p.TcMicros
	}
	idlePX, idlePY, idlePZ := stabsim.IdlePauliChannel(catDuration/2, memT, memT)
	catShots := p.Shots
	if catShots < 2000 {
		catShots = 2000
	}
	cat := SimulateCatGen(CatGenParams{
		Size:         catSize,
		P2:           p.P2,
		EPInfidelity: epInfidelity,
		VerifyChecks: p.VerifyChecks,
		IdlePX:       idlePX,
		IdlePY:       idlePY,
		IdlePZ:       idlePZ,
		Shots:        catShots,
		Seed:         p.Seed,
	})
	res.CatAcceptRate = cat.AcceptRate()
	res.Budget.Add("cat-generation (verified)", cat.ResidualErrorRate(), catDuration)
	epVerify := 1 - math.Pow(1-epInfidelity, float64(p.VerifyChecks))
	res.Budget.Add("verification-EP consumption", epVerify, 0)

	// --- Steps 3+5+6: logical |+⟩ preparation, transversal CNOT, logical
	// measurement and correction. Transversal-gate faults and readout
	// flips are absorbed by each side's error correction, so each side is
	// charged one full QEC cycle (both sectors) of its (U)EC sub-module.
	for _, side := range []struct {
		name   string
		code   *qec.Code
		native bool
	}{{"logical-A", p.CodeA, p.NativeA}, {"logical-B", p.CodeB, p.NativeB}} {
		rate, dur, errs, shots, err := p.uecLogicalRate(ctx, side.code, side.native)
		if err != nil {
			return nil, err
		}
		res.UECErrors += errs
		res.UECShots += shots
		res.Budget.Add(side.name+" ("+side.code.Name+")", rate, dur)
	}

	total := res.Budget.TotalErrorRate()
	if total > 0.5 {
		total = 0.5
	}
	res.LogicalErrorProbability = total
	return res, nil
}

// distillEPs runs an ensemble of event-driven distillation trajectories and
// returns the delivered EP infidelity and mean delivery rate, or ok=false
// when the module cannot reach the target fidelity at this generation rate
// (the paper's failed homogeneous cases). Three replicas smooth the
// single-trajectory shot noise of the pass/fail call; the pooled threshold
// is the single-trajectory one scaled by the replica count.
func (p Params) distillEPs(ctx context.Context) (infidelity, ratePerSecond float64, ok bool, err error) {
	cfg := distill.DefaultConfig(p.TsMillis, p.Heterogeneous)
	cfg.Seed = p.Seed
	cfg.GenRateKHz = p.EPRateKHz
	cfg.RawInfidelity = p.EPRawInfidelity
	cfg.TargetFidelity = p.TargetEPFidelity
	cfg.ConsumeAtThreshold = true
	const replicas = 3
	stats, err := distill.RunEnsembleContext(ctx, cfg, replicas, 20000, p.Workers) // 20 ms horizon each
	if err != nil {
		return 0, 0, false, err
	}
	if stats.Delivered < 5*replicas {
		return 1, 0, false, nil
	}
	// Delivered pairs are at or slightly above target; charge the target
	// infidelity (conservative).
	return 1 - p.TargetEPFidelity, stats.DeliveredRatePerSecond(), true, nil
}

// uecLogicalRate evaluates the (serialized or lattice) QEC sub-module's
// combined per-cycle logical error rate for one code, along with the raw
// error/shot counts the rate was estimated from.
func (p Params) uecLogicalRate(ctx context.Context, code *qec.Code, native bool) (rate float64, duration float64, errs, shots int64, err error) {
	total := 0.0
	var dur float64
	for _, basis := range []byte{'Z', 'X'} {
		up := uec.DefaultParams(code, p.TsMillis, p.Heterogeneous)
		up.Basis = basis
		up.NativePlacement = native
		up.P2 = p.P2
		up.TcMicros = p.TcMicros
		e, uerr := uec.New(up)
		if uerr != nil {
			return 0, 0, 0, 0, uerr
		}
		r, uerr := e.RunContext(ctx, p.Shots, p.Seed, p.Workers)
		if uerr != nil {
			return 0, 0, 0, 0, uerr
		}
		total += r.LogicalErrorRate()
		errs += int64(r.LogicalErrors)
		shots += int64(r.Shots)
		dur = e.CycleDuration
	}
	return total, dur, errs, shots, nil
}
