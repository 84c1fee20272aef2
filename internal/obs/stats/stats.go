// Package stats provides the small statistical toolkit the observability
// layer needs: Wilson score confidence intervals for the binomial
// proportions every Monte Carlo logical-error-rate estimate in this repo is
// built from.
//
// The paper reports headline reduction factors (2.6x/10.7x/3.0x) from
// sampled error rates; attaching an interval to each estimate is what makes
// those factors auditable — and what lets `hetarch runs diff` distinguish a
// real regression from shot noise.
package stats

import "math"

// Interval is a two-sided confidence interval for a non-negative rate.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Half returns the half-width of the interval.
func (iv Interval) Half() float64 { return (iv.Hi - iv.Lo) / 2 }

// Scaled returns the interval with both endpoints multiplied by f (f ≥ 0):
// the interval of a rate that is a known multiple of the estimated one,
// e.g. a pooled per-basis proportion scaled back up to a summed rate.
func (iv Interval) Scaled(f float64) Interval {
	return Interval{Lo: iv.Lo * f, Hi: iv.Hi * f}
}

// Shifted returns the interval translated by d, clamped to [0, max]
// (max ≤ 0 disables the upper clamp). Used to re-attach the non-sampled
// constant part of a composed error budget around a sampled term.
func (iv Interval) Shifted(d, max float64) Interval {
	out := Interval{Lo: iv.Lo + d, Hi: iv.Hi + d}
	if out.Lo < 0 {
		out.Lo = 0
	}
	if max > 0 && out.Hi > max {
		out.Hi = max
	}
	return out
}

// Map returns the interval with both endpoints transformed by the monotone
// non-decreasing function f — the CI of a deterministic reparameterization
// of the estimated rate (e.g. per-shot → per-cycle compounding).
func (iv Interval) Map(f func(float64) float64) Interval {
	return Interval{Lo: f(iv.Lo), Hi: f(iv.Hi)}
}

// Disjoint reports whether the two intervals do not overlap.
func (iv Interval) Disjoint(other Interval) bool {
	return iv.Hi < other.Lo || other.Hi < iv.Lo
}

// BinomialCI returns the Wilson score interval for k successes observed in
// n trials at the given two-sided confidence level (e.g. 0.95).
//
// The Wilson interval is preferred over the naive Wald interval because it
// behaves at the boundaries this repo actually hits: k = 0 (a quick-scale
// run that saw no logical errors) yields [0, hi] with an informative upper
// bound instead of a degenerate point, and k = n yields [lo, 1]. n ≤ 0
// returns the vacuous [0, 1]. Confidence levels outside (0, 1) fall back
// to 0.95.
func BinomialCI(k, n int64, confidence float64) Interval {
	if n <= 0 {
		return Interval{Lo: 0, Hi: 1}
	}
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	z := normQuantile(1 - (1-confidence)/2)
	p := float64(k) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	iv := Interval{Lo: center - half, Hi: center + half}
	// Pin the boundary cases exactly: rounding can leave Lo a few ulps off
	// zero when k = 0 (symmetrically for k = n).
	if k == 0 || iv.Lo < 0 {
		iv.Lo = 0
	}
	if k == n || iv.Hi > 1 {
		iv.Hi = 1
	}
	return iv
}

// normQuantile is the inverse CDF of the standard normal distribution
// (Acklam's rational approximation, relative error < 1.15e-9 — far below
// the Monte Carlo noise the intervals describe).
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
