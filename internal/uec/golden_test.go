package uec

import (
	"fmt"
	"math/bits"
	"testing"

	"hetarch/internal/decoder"
)

// TestRunContextGolden pins RunContext's error count bit for bit at 2^14
// shots, seed 1, one worker, on the evaluation codes at three operating
// points in both bases. The counts were recorded with the two-stage
// Decode/Syndrome/Decode shard body that the parity-table decode replaced,
// so they also pin the sampler's random-draw order.
func TestRunContextGolden(t *testing.T) {
	want := map[string]int{
		"RM15/het/Ts=1ms/Z": 1312, "RM15/het/Ts=1ms/X": 5016,
		"RM15/het/Ts=50ms/Z": 1110, "RM15/het/Ts=50ms/X": 3980,
		"RM15/hom/Ts=50ms/Z": 5053, "RM15/hom/Ts=50ms/X": 7398,
		"TriColor5/het/Ts=1ms/Z": 1629, "TriColor5/het/Ts=1ms/X": 1598,
		"TriColor5/het/Ts=50ms/Z": 1021, "TriColor5/het/Ts=50ms/X": 1007,
		"TriColor5/hom/Ts=50ms/Z": 5560, "TriColor5/hom/Ts=50ms/X": 5616,
		"Steane/het/Ts=1ms/Z": 790, "Steane/het/Ts=1ms/X": 805,
		"Steane/het/Ts=50ms/Z": 658, "Steane/het/Ts=50ms/X": 627,
		"Steane/hom/Ts=50ms/Z": 1277, "Steane/hom/Ts=50ms/X": 1321,
		"SC3/het/Ts=1ms/Z": 519, "SC3/het/Ts=1ms/X": 552,
		"SC3/het/Ts=50ms/Z": 341, "SC3/het/Ts=50ms/X": 372,
		"SC3/hom/Ts=50ms/Z": 117, "SC3/hom/Ts=50ms/X": 136,
		"SC4/het/Ts=1ms/Z": 1128, "SC4/het/Ts=1ms/X": 1120,
		"SC4/het/Ts=50ms/Z": 710, "SC4/het/Ts=50ms/X": 677,
		"SC4/hom/Ts=50ms/Z": 254, "SC4/hom/Ts=50ms/X": 260,
	}
	points := 0
	for name, code := range codes(t) {
		// The surface codes are lattice-native: the homogeneous baseline
		// places them without routing, as Table 3 does.
		native := name == "SC3" || name == "SC4"
		for _, cfg := range []struct {
			label string
			ts    float64
			het   bool
		}{{"het/Ts=1ms", 1, true}, {"het/Ts=50ms", 50, true}, {"hom/Ts=50ms", 50, false}} {
			for _, b := range []byte{'Z', 'X'} {
				point := fmt.Sprintf("%s/%s/%c", name, cfg.label, b)
				p := DefaultParams(code, cfg.ts, cfg.het)
				p.Basis = b
				p.NativePlacement = native && !cfg.het
				e, err := New(p)
				if err != nil {
					t.Fatalf("%s: %v", point, err)
				}
				if got := run(t, e, 1<<14, 1, 1); got.LogicalErrors != want[point] {
					t.Errorf("%s: %d logical errors in %d shots, want %d", point, got.LogicalErrors, got.Shots, want[point])
				}
				points++
			}
		}
	}
	if points != len(want) {
		t.Fatalf("ran %d points, want %d", points, len(want))
	}
}

// TestParityTableMatchesTwoStageDecode checks the parity-table prediction
// parity[s1] ^ parity[s1^sBoth] against the two-stage decode it replaces,
// c1 = Decode(s1), c2 = Decode(sBoth ^ Syndrome(c1)), parity((c1^c2) & L),
// on every (s1, sBoth) pair of the ten evaluation code/basis sectors.
func TestParityTableMatchesTwoStageDecode(t *testing.T) {
	for name, code := range codes(t) {
		for _, b := range []byte{'Z', 'X'} {
			p := DefaultParams(code, 50, true)
			p.Basis = b
			e, err := New(p)
			if err != nil {
				t.Fatalf("%s/%c: %v", name, b, err)
			}
			basis, _ := p.basisStabs()
			masks := make([]uint64, len(basis))
			for i, s := range basis {
				masks[i] = maskOf(s)
			}
			l := decoder.NewLookup(code.N, masks)
			k := uint64(len(masks))
			if got := len(e.parity) * 64; got < 1<<k {
				t.Fatalf("%s/%c: parity table holds %d bits, want >= %d", name, b, got, 1<<k)
			}
			bit := func(s uint64) uint64 { return e.parity[s/64] >> (s % 64) & 1 }
			for s1 := uint64(0); s1 < 1<<k; s1++ {
				c1 := l.Decode(s1)
				for sBoth := uint64(0); sBoth < 1<<k; sBoth++ {
					c2 := l.Decode(sBoth ^ l.Syndrome(c1))
					want := uint64(bits.OnesCount64((c1^c2)&e.logicalMask) & 1)
					if got := bit(s1) ^ bit(s1^sBoth); got != want {
						t.Fatalf("%s/%c: s1=%b sBoth=%b: parity table predicts %d, two-stage decode %d",
							name, b, s1, sBoth, got, want)
					}
				}
			}
		}
	}
}
