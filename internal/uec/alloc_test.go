package uec

import (
	"testing"

	"hetarch/internal/qec"
)

// TestRunShardedSteadyStateZeroAllocs gates the UEC shard runner —
// sampling from the compiled noise sites and parity-table decode — at
// zero allocations per shot once its arenas are warm, on the Fig 9
// (Steane, heterogeneous) and Table 3 (TriColor-d5, homogeneous)
// configurations. AllocsPerRun makes one unmeasured warm-up call before
// the measured one, so construction and arena growth are excluded. What
// remains is the per-call engine and worker setup (a few dozen
// allocations), which 2^19 shots amortize far below the bound, while one
// allocation per 64-shot batch would show as about 0.016 per shot.
func TestRunShardedSteadyStateZeroAllocs(t *testing.T) {
	const shots = 1 << 19
	for _, tc := range []struct {
		name string
		code *qec.Code
		het  bool
	}{
		{"fig9/Steane-het", qec.Steane(), true},
		{"table3/TriColor5-hom", qec.TriColor5(), false},
	} {
		e, err := New(DefaultParams(tc.code, 50, tc.het))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perCall := testing.AllocsPerRun(1, func() { run(t, e, shots, 1, 1) })
		if perShot := perCall / shots; perShot >= 0.0005 {
			t.Errorf("%s: %.4f allocations per shot (%.0f per %d-shot call), want < 0.0005",
				tc.name, perShot, perCall, shots)
		}
	}
}
