package distill

import "testing"

// TestModuleRunAllocs gates the distillation event loop: a module run
// allocates only its construction (module, simulator, RNG, slot arrays and
// bound callbacks) plus the event queue's growth, never per event, so the
// count is the same at a 2 ms and a 20 ms horizon. Trace mode is excluded
// because Stats.Trace grows with the horizon by design.
func TestModuleRunAllocs(t *testing.T) {
	const limit = 32
	for _, het := range []bool{true, false} {
		cfg := DefaultConfig(12.5, het)
		cfg.Seed = 1
		cfg.GenRateKHz = 1000
		cfg.ConsumeAtThreshold = true
		for _, horizon := range []float64{2000, 20000} {
			allocs := testing.AllocsPerRun(5, func() { NewModule(cfg).Run(horizon) })
			if allocs > limit {
				t.Errorf("het=%v, %v us: %.0f allocations per run, want <= %d",
					het, horizon, allocs, limit)
			}
		}
	}
}
