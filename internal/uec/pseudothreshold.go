package uec

import (
	"context"
	"math"
)

// PseudothresholdContext finds the physical two-qubit error rate at which
// the module's combined logical error rate equals the physical rate — the
// break-even point below which encoding helps (Table 3's PT column).
//
// Monte Carlo estimates at very low physical rates are dominated by shot
// noise, so instead of bisecting, the logical rate is sampled on a log-
// spaced grid where statistics are solid and fitted with a power law
// log(p_L) = a + b·log(p); the pseudothreshold is the solution of
// p_L(p) = p. The storage-SWAP error scales with the sweep
// (SwapError = P2/2, the DefaultParams ratio) and decoherence is disabled
// so the logical rate is a pure function of the gate error.
//
// It returns ok=false when the fit never crosses break-even from below
// (b ≤ 1, or the crossing falls outside the sampled decade range) — e.g.
// the surface codes on the serial module, which the paper marks "—".
//
// workers is the mc engine's goroutine count per grid point (<= 0 means
// runtime.NumCPU()); it never affects the fitted value. Cancellation
// between or during grid points abandons the fit and returns the context's
// error (wrapped in a *mc.PartialError by the engine). The fit itself only
// runs on a fully sampled grid, so a partial sweep never produces a skewed
// pseudothreshold.
func PseudothresholdContext(ctx context.Context, base Params, shots int, seed int64, workers int) (pt float64, ok bool, err error) {
	combined := func(p2 float64) (float64, error) {
		total := 0.0
		for _, basis := range []byte{'Z', 'X'} {
			p := base
			p.P2 = p2
			p.SwapError = p2 / 2
			p.Basis = basis
			// Pure gate-error pseudothreshold: decoherence off.
			p.TsMicros = 1e15
			p.TcMicros = 1e15
			e, err := New(p)
			if err != nil {
				return 0, err
			}
			r, err := e.RunContext(ctx, shots, seed, workers)
			if err != nil {
				return 0, err
			}
			total += r.LogicalErrorRate()
		}
		return total, nil
	}

	grid := []float64{0.003, 0.006, 0.012, 0.024, 0.048}
	var xs, ys []float64
	for _, p := range grid {
		r, err := combined(p)
		if err != nil {
			return 0, false, err
		}
		if r <= 0 {
			continue // no statistics at this point
		}
		xs = append(xs, math.Log(p))
		ys = append(ys, math.Log(r))
	}
	if len(xs) < 2 {
		return 0, false, nil
	}
	a, b := fitLine(xs, ys)
	if b <= 1 {
		return 0, false, nil // logical rate does not fall faster than physical
	}
	// Solve a + b·log(p) = log(p)  =>  log(p) = a / (1 - b).
	logPT := a / (1 - b)
	pt = math.Exp(logPT)
	// Reject extrapolations far outside the sampled decades: the power-law
	// model is not trustworthy there (e.g. the Reed-Muller code's logical
	// rate stays above break-even throughout the near-term regime).
	if pt < 1e-5 || math.IsNaN(pt) || pt > 1 {
		return 0, false, nil
	}
	return pt, true, nil
}

// fitLine returns the least-squares intercept and slope of y against x.
func fitLine(xs, ys []float64) (intercept, slope float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	slope = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	intercept = (sy - slope*sx) / n
	return intercept, slope
}
