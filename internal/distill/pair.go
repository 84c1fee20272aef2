// Package distill implements the entanglement-distillation module of
// Section 4.1: Bell-diagonal entangled-pair states, the DEJMPS recurrence,
// decoherence of stored pairs, a stochastic EP source, and the greedy
// scheduler coordinating input memory, distillation, and output memory.
package distill

import (
	"fmt"
	"math"

	"hetarch/internal/densmat"
	"hetarch/internal/linalg"
)

// Pair is a Bell-diagonal two-qubit state, the closure of Bell states under
// Pauli noise and DEJMPS rounds. Coefficients are probabilities of the four
// Bell projectors in the order |Φ+⟩, |Φ−⟩, |Ψ+⟩, |Ψ−⟩; Fidelity is P[Φ+].
type Pair struct {
	P [4]float64
}

// NewWernerPair returns the Werner state with the given fidelity.
func NewWernerPair(fidelity float64) Pair {
	if fidelity < 0 || fidelity > 1 {
		panic(fmt.Sprintf("distill: fidelity %g out of range", fidelity))
	}
	rest := (1 - fidelity) / 3
	return Pair{P: [4]float64{fidelity, rest, rest, rest}}
}

// Fidelity returns the overlap with |Φ+⟩.
func (p Pair) Fidelity() float64 { return p.P[0] }

// Infidelity returns 1 − fidelity.
func (p Pair) Infidelity() float64 { return 1 - p.P[0] }

// Validate checks normalization and positivity.
func (p Pair) Validate() error {
	sum := 0.0
	for _, v := range p.P {
		if v < -1e-12 {
			return fmt.Errorf("distill: negative Bell coefficient %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("distill: Bell coefficients sum to %g", sum)
	}
	return nil
}

// applyPauliOneSide mixes the coefficients under a Pauli channel
// (px, py, pz) acting on ONE qubit of the pair. Pauli action permutes Bell
// states: X swaps Φ±↔Ψ±, Z swaps +↔−, Y does both.
//
// Each output sums its four sources in source-index order (0 Φ+, 1 Φ−,
// 2 Ψ+, 3 Ψ−), left to right; floating-point addition is not associative,
// so that order is part of the result.
func applyPauliOneSide(p [4]float64, px, py, pz float64) [4]float64 {
	pi := 1 - px - py - pz
	return [4]float64{
		pi*p[0] + pz*p[1] + px*p[2] + py*p[3],
		pz*p[0] + pi*p[1] + py*p[2] + px*p[3],
		px*p[0] + py*p[1] + pi*p[2] + pz*p[3],
		py*p[0] + px*p[1] + pz*p[2] + pi*p[3],
	}
}

// Decohere evolves the pair for duration dt (µs) with each listed side
// idling under its own (T1, T2): the amplitude+phase damping of each half is
// Pauli-twirled into an asymmetric Pauli channel, which keeps the state
// Bell-diagonal. sideT1/sideT2 give per-side coherence times; a side with
// T1 ≤ 0 is treated as noiseless.
func (p Pair) Decohere(dt float64, t1A, t2A, t1B, t2B float64) Pair {
	out := p.P
	if t1A > 0 {
		px, py, pz := idlePauli(dt, t1A, t2A)
		out = applyPauliOneSide(out, px, py, pz)
	}
	if t1B > 0 {
		px, py, pz := idlePauli(dt, t1B, t2B)
		out = applyPauliOneSide(out, px, py, pz)
	}
	return Pair{P: out}
}

// idlePauli is the same twirl as stabsim.IdlePauliChannel, duplicated here
// to keep the package dependency-light; both are covered by tests.
func idlePauli(dt, t1, t2 float64) (px, py, pz float64) {
	pT1 := 1 - math.Exp(-dt/t1)
	if t2 <= 0 || t2 > 2*t1 {
		t2 = 2 * t1
	}
	pT2 := pT1 // T2 = T1 (every memory slot) needs no second exp
	if t2 != t1 {
		pT2 = 1 - math.Exp(-dt/t2)
	}
	px = pT1 / 4
	py = pT1 / 4
	pz = pT2/2 - pT1/4
	if pz < 0 {
		pz = 0
	}
	return
}

// DEJMPS consumes two pairs and returns the distilled output pair, the
// success probability of the protocol round, and the deterministic gate
// infidelity penalty applied (from the two-qubit gate error of the cell
// executing it, folded in as depolarizing noise on the surviving pair).
//
// The recurrence is the closed form of the DEJMPS circuit — local √X
// rotations, bilateral CNOTs, Z measurement of the second pair, postselected
// on equal outcomes. It is validated against exact density-matrix simulation
// (DEJMPSExact) in the package tests.
func DEJMPS(a, b Pair, gateError float64) (out Pair, pSuccess float64) {
	// Coefficient labels: 0 Φ+, 1 Φ−, 2 Ψ+, 3 Ψ−.
	// The DEJMPS rotations pair Φ+ with Ψ− and Φ− with Ψ+; the recurrence
	// (validated against DEJMPSExact in tests) is:
	//   N    = (a0+a3)(b0+b3) + (a1+a2)(b1+b2)
	//   out0 = (a0·b0 + a3·b3)/N
	//   out1 = (a0·b3 + a3·b0)/N
	//   out2 = (a1·b1 + a2·b2)/N
	//   out3 = (a1·b2 + a2·b1)/N
	n := (a.P[0]+a.P[3])*(b.P[0]+b.P[3]) + (a.P[1]+a.P[2])*(b.P[1]+b.P[2])
	if n <= 0 {
		return Pair{}, 0
	}
	out = Pair{P: [4]float64{
		(a.P[0]*b.P[0] + a.P[3]*b.P[3]) / n,
		(a.P[0]*b.P[3] + a.P[3]*b.P[0]) / n,
		(a.P[1]*b.P[1] + a.P[2]*b.P[2]) / n,
		(a.P[1]*b.P[2] + a.P[2]*b.P[1]) / n,
	}}
	if gateError > 0 {
		// Two noisy CNOTs touch the surviving pair (one on each side);
		// fold their depolarizing error in as a symmetric Pauli channel.
		e := gateError
		out = Pair{P: applyPauliOneSide(out.P, e/4, e/4, e/4)}
		out = Pair{P: applyPauliOneSide(out.P, e/4, e/4, e/4)}
	}
	return out, n
}

// DEJMPSExact runs the DEJMPS circuit on two Bell-diagonal pairs by exact
// density-matrix simulation and returns the postselected output pair and
// success probability. It is the reference implementation used to validate
// the closed-form recurrence (and is exposed for ablation benchmarks).
func DEJMPSExact(a, b Pair) (Pair, float64) {
	// Qubits: 0 = Alice pair1, 1 = Bob pair1, 2 = Alice pair2, 3 = Bob pair2.
	d := bellDiagonal4(a, b)

	sx := linalg.RX(math.Pi / 2)     // Alice: √X
	sxDag := linalg.RX(-math.Pi / 2) // Bob: √X†
	d.ApplyUnitary(sx, 0)
	d.ApplyUnitary(sx, 2)
	d.ApplyUnitary(sxDag, 1)
	d.ApplyUnitary(sxDag, 3)
	d.ApplyUnitary(linalg.CNOT(), 0, 2)
	d.ApplyUnitary(linalg.CNOT(), 1, 3)

	// Postselect equal outcomes on qubits 2 and 3: P00 + P11.
	p00 := projectTwo(d, 2, 3, 0, 0)
	p11 := projectTwo(d, 2, 3, 1, 1)
	pSucc := p00.prob + p11.prob
	if pSucc <= 1e-15 {
		return Pair{}, 0
	}
	// Mix the two postselected branches (classically flagged but both kept).
	mixed := linalg.Add(
		linalg.Scale(complex(p00.prob/pSucc, 0), p00.state.Matrix()),
		linalg.Scale(complex(p11.prob/pSucc, 0), p11.state.Matrix()),
	)
	reduced := densmat.FromMatrix(mixed).PartialTrace(0, 1)
	var out Pair
	basis := [][]complex128{
		densmat.BellPhiPlus(), densmat.BellPhiMinus(),
		densmat.BellPsiPlus(), densmat.BellPsiMinus(),
	}
	for i, psi := range basis {
		out.P[i] = reduced.FidelityPure(psi)
	}
	return out, pSucc
}

type projected struct {
	prob  float64
	state *densmat.DensityMatrix
}

// projectTwo projects qubits qa and qb of a copy of d onto the given
// outcomes and returns the normalized state and branch probability.
func projectTwo(d *densmat.DensityMatrix, qa, qb, oa, ob int) projected {
	c := d.Clone()
	pa := c.Prob(qa, oa)
	if pa < 1e-15 {
		return projected{}
	}
	c.Project(qa, oa)
	pb := c.Prob(qb, ob)
	if pb < 1e-15 {
		return projected{}
	}
	c.Project(qb, ob)
	return projected{prob: pa * pb, state: c}
}

// bellDiagonal4 builds the 4-qubit product state pairA(0,1) ⊗ pairB(2,3)
// with each pair Bell-diagonal.
func bellDiagonal4(a, b Pair) *densmat.DensityMatrix {
	mats := make([]*linalg.Matrix, 2)
	for k, pr := range []Pair{a, b} {
		basis := [][]complex128{
			densmat.BellPhiPlus(), densmat.BellPhiMinus(),
			densmat.BellPsiPlus(), densmat.BellPsiMinus(),
		}
		acc := linalg.New(4, 4)
		for i, psi := range basis {
			proj := densmat.FromPure(psi).Matrix()
			linalg.AddInPlace(acc, linalg.Scale(complex(pr.P[i], 0), proj))
		}
		mats[k] = acc
	}
	return densmat.FromMatrix(linalg.Kron(mats[0], mats[1]))
}

// Twirl projects the pair onto Werner form, preserving fidelity — the
// depolarization step of the BBPSSW protocol (random bilateral rotations).
func (p Pair) Twirl() Pair {
	return NewWernerPair(p.P[0])
}

// BBPSSW applies one round of the Bennett et al. purification protocol:
// both pairs are twirled to Werner form, a bilateral CNOT and postselected
// measurement are applied, and the output is reported in Werner form. It
// converges strictly slower than DEJMPS (which skips the twirl and exploits
// the Bell-diagonal structure); the package benchmarks quantify the gap.
func BBPSSW(a, b Pair, gateError float64) (out Pair, pSuccess float64) {
	fa := a.Fidelity()
	fb := b.Fidelity()
	// Standard closed form for Werner inputs.
	ea, eb := (1-fa)/3, (1-fb)/3
	n := fa*fb + fa*eb + fb*ea + 5*ea*eb
	if n <= 0 {
		return Pair{}, 0
	}
	fOut := (fa*fb + ea*eb) / n
	out = NewWernerPair(fOut)
	if gateError > 0 {
		e := gateError
		out = Pair{P: applyPauliOneSide(out.P, e/4, e/4, e/4)}
		out = Pair{P: applyPauliOneSide(out.P, e/4, e/4, e/4)}
		out = out.Twirl()
	}
	return out, n
}
