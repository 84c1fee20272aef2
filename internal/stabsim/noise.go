package stabsim

import "math"

// IdlePauliChannel converts an idle period of the given duration under
// coherence times t1 and t2 into the Pauli-twirled (px, py, pz) channel used
// by the stabilizer backends:
//
//	px = py = (1 − e^{−t/T1}) / 4
//	pz = (1 − e^{−t/T2}) / 2 − (1 − e^{−t/T1}) / 4
//
// This is the standard twirl of amplitude plus phase damping; it preserves
// both the T1 population-decay statistics and the T2 coherence-decay
// statistics at first order, which is what circuit-level QEC noise models
// (including the paper's Stim models) use. T2 is clamped to 2·T1.
func IdlePauliChannel(duration, t1, t2 float64) (px, py, pz float64) {
	if duration <= 0 {
		return 0, 0, 0
	}
	var pT1 float64 // 1 − e^{−t/T1}
	if t1 <= 0 {
		pT1 = 1
	} else {
		pT1 = 1 - math.Exp(-duration/t1)
	}
	if t1 > 0 && (t2 <= 0 || t2 > 2*t1) {
		t2 = 2 * t1
	}
	var pT2 float64 // 1 − e^{−t/T2}
	if t2 <= 0 {
		pT2 = 1
	} else {
		pT2 = 1 - math.Exp(-duration/t2)
	}
	px = pT1 / 4
	py = pT1 / 4
	pz = pT2/2 - pT1/4
	if pz < 0 {
		pz = 0
	}
	return px, py, pz
}
