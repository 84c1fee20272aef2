package distill

import "testing"

// TestAblationFig4HomogeneousNeedsSecondUnit pins the explanation of the
// Fig 4 deviation (the homogeneous baseline overtakes the heterogeneous
// module above about 3 MHz): the baseline's second concurrent DEJMPS unit
// (DefaultConfig's Distillers = 2). With it, hom out-delivers het at 3 and
// 10 MHz. Without it, hom delivers nothing at any of Fig 4's rates, so het
// is ahead everywhere and the second unit accounts for the whole
// homogeneous column, not only the overtaking.
func TestAblationFig4HomogeneousNeedsSecondUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("15 module runs of 20 ms each")
	}
	const horizon = 20000.0 // µs
	run := func(cfg Config, rate float64) Stats {
		cfg.Seed = 1
		cfg.GenRateKHz = rate
		cfg.ConsumeAtThreshold = true
		return NewModule(cfg).Run(horizon)
	}
	for _, rate := range []float64{100, 300, 1000, 3000, 10000} {
		het := run(DefaultConfig(12.5, true), rate)
		hom := run(DefaultConfig(0.5, false), rate)
		if rate >= 3000 && hom.Delivered <= het.Delivered {
			t.Errorf("%v kHz, two units: hom delivered %d, het %d; want hom ahead",
				rate, hom.Delivered, het.Delivered)
		}

		one := DefaultConfig(0.5, false)
		one.Distillers = 1
		homOne := run(one, rate)
		if homOne.Delivered != 0 {
			t.Errorf("%v kHz, one unit: hom delivered %d (het %d), want 0",
				rate, homOne.Delivered, het.Delivered)
		}
	}
}
