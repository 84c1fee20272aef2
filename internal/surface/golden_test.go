package surface

import (
	"fmt"
	"testing"
)

// TestRunContextGolden pins RunContext's (shots, errors) bit for bit at
// seed 1 on d = 3, 5 and 13, in both bases, at two data coherence times
// each. The counts were recorded with the union–find growth loop that kept
// a merged edge list per cluster, before the open-vertex chains replaced
// it, so they pin the decoder's predictions end to end together with the
// sampler's draw order. Four workers share one decoder's read-only tables
// through their clones; the counts do not depend on the worker count.
// -short runs smaller budgets, pinned separately, to keep -race fast.
func TestRunContextGolden(t *testing.T) {
	type budget struct{ shots, errors int }
	points := []struct {
		d           int
		basis       byte
		tcd         float64
		full, short budget
	}{
		{3, 'Z', 100, budget{250000, 18867}, budget{20000, 1520}},
		{3, 'Z', 800, budget{250000, 15437}, budget{20000, 1254}},
		{3, 'X', 100, budget{250000, 24836}, budget{20000, 2006}},
		{3, 'X', 800, budget{250000, 21299}, budget{20000, 1645}},
		{5, 'Z', 100, budget{250000, 23494}, budget{20000, 1935}},
		{5, 'Z', 800, budget{250000, 15936}, budget{20000, 1267}},
		{5, 'X', 100, budget{250000, 33486}, budget{20000, 2720}},
		{5, 'X', 800, budget{250000, 25582}, budget{20000, 2046}},
		{13, 'Z', 100, budget{5000, 1214}, budget{1000, 254}},
		{13, 'Z', 500, budget{5000, 736}, budget{1000, 144}},
		{13, 'X', 100, budget{5000, 1570}, budget{1000, 311}},
		{13, 'X', 500, budget{5000, 1150}, budget{1000, 222}},
	}
	for _, pt := range points {
		name := fmt.Sprintf("d=%d/%c/Tcd=%gus", pt.d, pt.basis, pt.tcd)
		want := pt.full
		if testing.Short() {
			want = pt.short
		}
		p := DefaultParams(pt.d)
		p.TcdMicros = pt.tcd
		p.Basis = pt.basis
		e, err := New(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := run(t, e, want.shots, 1, 4)
		if got.Shots != want.shots || got.LogicalErrors != want.errors {
			t.Errorf("%s: %d errors in %d shots, want %d in %d", name, got.LogicalErrors, got.Shots, want.errors, want.shots)
		}
	}
}
