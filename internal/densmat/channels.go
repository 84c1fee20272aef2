package densmat

import (
	"math"

	"hetarch/internal/linalg"
)

// Noise channels. Superconducting decoherence is modeled with the standard
// discrete Kraus maps applied at gate granularity: amplitude damping for T1
// energy relaxation, phase damping for the pure-dephasing part of T2, and
// depolarizing noise for gate infidelity. These are exactly the channels the
// paper uses when characterizing standard cells.

// AmplitudeDampingKraus returns the Kraus operators of the amplitude-damping
// channel with decay probability gamma ∈ [0,1].
func AmplitudeDampingKraus(gamma float64) []*linalg.Matrix {
	clamp01(&gamma)
	k0 := linalg.FromSlice(2, 2, []complex128{1, 0, 0, complex(math.Sqrt(1-gamma), 0)})
	k1 := linalg.FromSlice(2, 2, []complex128{0, complex(math.Sqrt(gamma), 0), 0, 0})
	return []*linalg.Matrix{k0, k1}
}

// PhaseDampingKraus returns the Kraus operators of the phase-damping channel
// with dephasing probability lambda ∈ [0,1].
func PhaseDampingKraus(lambda float64) []*linalg.Matrix {
	clamp01(&lambda)
	k0 := linalg.FromSlice(2, 2, []complex128{1, 0, 0, complex(math.Sqrt(1-lambda), 0)})
	k1 := linalg.FromSlice(2, 2, []complex128{0, 0, 0, complex(math.Sqrt(lambda), 0)})
	return []*linalg.Matrix{k0, k1}
}

// DepolarizingKraus1 returns the single-qubit depolarizing channel with total
// error probability p: ρ → (1−p)ρ + (p/3)(XρX + YρY + ZρZ).
func DepolarizingKraus1(p float64) []*linalg.Matrix {
	clamp01(&p)
	ops := make([]*linalg.Matrix, 0, 4)
	ops = append(ops, linalg.Scale(complex(math.Sqrt(1-p), 0), linalg.I2()))
	for i := 1; i <= 3; i++ {
		ops = append(ops, linalg.Scale(complex(math.Sqrt(p/3), 0), linalg.Pauli1(i)))
	}
	return ops
}

// DepolarizingKraus2 returns the two-qubit depolarizing channel with total
// error probability p spread uniformly over the 15 non-identity Paulis.
func DepolarizingKraus2(p float64) []*linalg.Matrix {
	clamp01(&p)
	ops := make([]*linalg.Matrix, 0, 16)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			m := linalg.Kron(linalg.Pauli1(a), linalg.Pauli1(b))
			var coeff float64
			if a == 0 && b == 0 {
				coeff = math.Sqrt(1 - p)
			} else {
				coeff = math.Sqrt(p / 15)
			}
			ops = append(ops, linalg.Scale(complex(coeff, 0), m))
		}
	}
	return ops
}

// IdleParams converts an idle duration and device coherence times into the
// (gamma, lambda) pair for amplitude- plus phase-damping. T2 is clamped to
// its physical ceiling of 2·T1. Durations and times share any one unit.
func IdleParams(duration, t1, t2 float64) (gamma, lambda float64) {
	if duration <= 0 {
		return 0, 0
	}
	if t1 <= 0 {
		gamma = 1
	} else {
		gamma = 1 - math.Exp(-duration/t1)
	}
	if t2 <= 0 {
		return gamma, 1
	}
	if t1 > 0 && t2 > 2*t1 {
		t2 = 2 * t1
	}
	// Pure dephasing rate: 1/Tφ = 1/T2 − 1/(2·T1). The residual off-diagonal
	// decay after amplitude damping removes sqrt(1−gamma) = e^{−t/2T1}.
	var phiRate float64
	if t1 > 0 {
		phiRate = 1/t2 - 1/(2*t1)
	} else {
		phiRate = 1 / t2
	}
	if phiRate < 0 {
		phiRate = 0
	}
	lambda = 1 - math.Exp(-2*duration*phiRate)
	return gamma, lambda
}

// ApplyIdle applies decoherence to qubit q for the given duration under
// coherence times t1 and t2 (same units as duration).
func (d *DensityMatrix) ApplyIdle(q int, duration, t1, t2 float64) {
	gamma, lambda := IdleParams(duration, t1, t2)
	if gamma > 0 {
		d.ApplyKraus(AmplitudeDampingKraus(gamma), q)
	}
	if lambda > 0 {
		d.ApplyKraus(PhaseDampingKraus(lambda), q)
	}
}

// ApplyDepolarizing1 applies single-qubit depolarizing noise to q.
func (d *DensityMatrix) ApplyDepolarizing1(q int, p float64) {
	if p > 0 {
		d.ApplyKraus(DepolarizingKraus1(p), q)
	}
}

// ApplyDepolarizing2 applies two-qubit depolarizing noise to (q1, q2).
func (d *DensityMatrix) ApplyDepolarizing2(q1, q2 int, p float64) {
	if p > 0 {
		d.ApplyKraus(DepolarizingKraus2(p), q1, q2)
	}
}

func clamp01(p *float64) {
	if *p < 0 {
		*p = 0
	}
	if *p > 1 {
		*p = 1
	}
}
