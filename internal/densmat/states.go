package densmat

import "math"

// Common reference states used when characterizing standard cells and
// entangled-pair protocols.

// BellPhiPlus returns the amplitudes of |Φ+⟩ = (|00⟩+|11⟩)/√2.
func BellPhiPlus() []complex128 {
	s := complex(1/math.Sqrt2, 0)
	return []complex128{s, 0, 0, s}
}

// BellPhiMinus returns |Φ−⟩ = (|00⟩−|11⟩)/√2.
func BellPhiMinus() []complex128 {
	s := complex(1/math.Sqrt2, 0)
	return []complex128{s, 0, 0, -s}
}

// BellPsiPlus returns |Ψ+⟩ = (|01⟩+|10⟩)/√2.
func BellPsiPlus() []complex128 {
	s := complex(1/math.Sqrt2, 0)
	return []complex128{0, s, s, 0}
}

// BellPsiMinus returns |Ψ−⟩ = (|01⟩−|10⟩)/√2.
func BellPsiMinus() []complex128 {
	s := complex(1/math.Sqrt2, 0)
	return []complex128{0, s, -s, 0}
}

// GHZ returns the n-qubit GHZ (CAT) state (|0…0⟩+|1…1⟩)/√2.
func GHZ(n int) []complex128 {
	dim := 1 << n
	psi := make([]complex128, dim)
	s := complex(1/math.Sqrt2, 0)
	psi[0] = s
	psi[dim-1] = s
	return psi
}

// WernerState returns the two-qubit Werner state with fidelity f to |Φ+⟩:
// ρ = f·|Φ+⟩⟨Φ+| + (1−f)/3 · (the three other Bell projectors).
func WernerState(f float64) *DensityMatrix {
	rest := (1 - f) / 3
	out := FromPure(BellPhiPlus())
	for i := range out.mat.Data {
		out.mat.Data[i] *= complex(f, 0)
	}
	for _, psi := range [][]complex128{BellPhiMinus(), BellPsiPlus(), BellPsiMinus()} {
		p := FromPure(psi)
		for i := range out.mat.Data {
			out.mat.Data[i] += p.mat.Data[i] * complex(rest, 0)
		}
	}
	return out
}
