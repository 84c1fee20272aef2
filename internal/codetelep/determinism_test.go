package codetelep

import (
	"context"
	"runtime"
	"testing"

	"hetarch/internal/qec"
)

// EvaluateContext composes sharded UEC runs and the distillation ensemble;
// the whole composition must be worker-count independent.
func TestEvaluateDeterministicAcrossWorkerCounts(t *testing.T) {
	sc3, _ := qec.Surface(3)
	p := DefaultParams(qec.Steane(), sc3, 25, true)
	p.Shots = 1500
	p.Seed = 9

	run := func(workers int) Result {
		pp := p
		pp.Workers = workers
		r, err := EvaluateContext(context.Background(), pp)
		if err != nil {
			t.Fatal(err)
		}
		return *r
	}
	base := run(1)
	for _, w := range []int{4, runtime.NumCPU()} {
		got := run(w)
		if got.LogicalErrorProbability != base.LogicalErrorProbability ||
			got.UECErrors != base.UECErrors || got.UECShots != base.UECShots ||
			got.DistillationFailed != base.DistillationFailed ||
			got.EPFidelityAchieved != base.EPFidelityAchieved ||
			got.CatAcceptRate != base.CatAcceptRate {
			t.Fatalf("workers=%d: %+v != workers=1 %+v", w, got, base)
		}
	}
	if again := run(4); again.LogicalErrorProbability != base.LogicalErrorProbability {
		t.Fatal("evaluation not reproducible")
	}
}
