package uec

import (
	"context"
	"runtime"
	"testing"

	"hetarch/internal/qec"
)

// The mc engine's contract, checked at this package's level: pooled
// (shots, errors) are identical for workers = 1, 4, and NumCPU at a fixed
// seed, and repeated runs at one worker count are bit-identical.
func TestRunShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	e, err := New(DefaultParams(qec.Steane(), 25, true))
	if err != nil {
		t.Fatal(err)
	}
	base := run(t, e, 3000, 11, 1)
	if base.Shots != 3000 {
		t.Fatalf("shot accounting wrong: %+v", base)
	}
	for _, w := range []int{4, runtime.NumCPU(), 0} {
		if got := run(t, e, 3000, 11, w); got != base {
			t.Fatalf("workers=%d: %+v != workers=1 %+v", w, got, base)
		}
	}
	if again := run(t, e, 3000, 11, 4); again != base {
		t.Fatal("sharded run not reproducible")
	}
}

func TestPseudothresholdWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo grid fit")
	}
	base := DefaultParams(qec.Steane(), 50, true)
	pt1, ok1, err1 := PseudothresholdContext(context.Background(), base, 1500, 21, 1)
	pt4, ok4, err4 := PseudothresholdContext(context.Background(), base, 1500, 21, 4)
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	if ok1 != ok4 || pt1 != pt4 {
		t.Fatalf("pseudothreshold depends on workers: (%v,%v) vs (%v,%v)", pt1, ok1, pt4, ok4)
	}
}
