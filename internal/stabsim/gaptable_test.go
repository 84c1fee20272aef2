package stabsim

import (
	"fmt"
	"math"
	"testing"

	"hetarch/internal/splitmix"
)

// gapReference is the gap the logarithmic sampler (referenceMask) computed
// for draw n, int(math.Log(1-u) / log1p(-p)) with u = n·2⁻⁵³, capped at
// gapCap. The cap is applied before the conversion, which overflows for the
// largest gaps of a tiny p.
func gapReference(ref *referenceMaskParams, n uint64) int {
	u := float64(n) * 0x1p-53 // rng.Float64 of a word whose top 53 bits are n
	if g := math.Log(1-u) / ref.logq; g < gapCap {
		return int(g)
	}
	return gapCap
}

// checkedGapTable builds the gap table of p, 0 < p < 1, and checks it
// against the logarithm where its entries come from: each threshold thr[k]
// must be the first draw at which the reference gap reaches k, and the
// all-zero cut anyN must agree with the reference's u >= anyBit on both of
// its sides.
func checkedGapTable(p float64) (*gapTable, *referenceMaskParams, error) {
	t := new(gapTable)
	t.build(p)
	ref := newReferenceMaskParams(p)
	for k := 1; k <= gapCap; k++ {
		n := t.thr[k]
		if n < drawLimit && gapReference(&ref, n) < k || n > 0 && gapReference(&ref, n-1) >= k {
			return nil, nil, fmt.Errorf("p=%v: thr[%d] = %d is not the first draw whose gap reaches %d", p, k, n, k)
		}
	}
	for _, n := range []uint64{t.anyN - 1, t.anyN} {
		if n < drawLimit && (n >= t.anyN) != (float64(n)*0x1p-53 >= ref.anyBit) {
			return nil, nil, fmt.Errorf("p=%v: draw %d: all-zero cut %d disagrees with anyBit %v", p, n, t.anyN, ref.anyBit)
		}
	}
	return t, &ref, nil
}

// drawError reports draw n if its table gap differs from the logarithm's.
func drawError(t *gapTable, ref *referenceMaskParams, n uint64) error {
	if got, want := t.gap(n), gapReference(ref, n); got != want {
		return fmt.Errorf("p=%v: draw %d: table gap %d, logarithm %d", t.p, n, got, want)
	}
	return nil
}

// checkGapTable checks the gap table of p as checkedGapTable does, then
// compares its gap with the logarithm's on every draw within window of a
// threshold and on random draws from rng.
func checkGapTable(p float64, window uint64, random int, rng *splitmix.RNG) error {
	t, ref, err := checkedGapTable(p)
	if err != nil {
		return err
	}
	next := uint64(0) // the windows overlap where thresholds crowd
	for k := 1; k <= gapCap; k++ {
		lo := max(t.thr[k]-min(t.thr[k], window), next)
		next = max(next, min(t.thr[k]+window+1, drawLimit))
		for n := lo; n < next; n++ {
			if err := drawError(t, ref, n); err != nil {
				return err
			}
		}
	}
	for i := 0; i < random; i++ {
		if err := drawError(t, ref, rng.Uint64()>>(64-drawBits)); err != nil {
			return err
		}
	}
	return nil
}

// FuzzGapTable checks the gap table of a fuzzed probability p against the
// logarithm at its thresholds, its all-zero cut and the fuzzed draw n (the
// low 53 bits of the fuzzed word).
func FuzzGapTable(f *testing.F) {
	f.Add(0.001, uint64(0))
	f.Add(0.5, uint64(drawLimit-1))
	f.Add(1e-12, uint64(9008))
	f.Add(0.999999, uint64(1)<<52)
	f.Add(0.44539244371164566, uint64(123456789))
	f.Fuzz(func(t *testing.T, p float64, n uint64) {
		if !(p > 0 && p < 1) {
			t.Skip("not a probability strictly between 0 and 1")
		}
		table, ref, err := checkedGapTable(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := drawError(table, ref, n&(drawLimit-1)); err != nil {
			t.Fatal(err)
		}
	})
}
