package splitmix

import (
	"math/rand"
	"testing"
)

// TestSeedRestartsStream: reseeding with the same value must replay the
// identical stream — the property the shard runners and the zero-alloc
// test warm-up/replay discipline depend on.
func TestSeedRestartsStream(t *testing.T) {
	r := New(42)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(42)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("draw %d after reseed: %d != %d", i, got, first[i])
		}
	}
	if fresh := New(42).Uint64(); fresh != first[0] {
		t.Fatalf("fresh instance: %d != %d", fresh, first[0])
	}
}

// TestFloat64Range: Float64 must produce [0, 1) with the full 53-bit
// mantissa mapping (matching math/rand's contract for Source64 consumers).
func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("draw %d: Float64() = %v out of [0, 1)", i, f)
		}
	}
}

// TestIntnBounds: Intn must stay in [0, n) and hit every residue of a
// small modulus (the rejection loop must not starve any value).
func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make([]bool, 5)
	for i := 0; i < 10000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Intn(5) never produced %d in 10000 draws", v)
		}
	}
}

// TestSource64Contract: the RNG must satisfy rand.Source64 so rand.New
// can wrap it, and Int63 must be non-negative.
func TestSource64Contract(t *testing.T) {
	var src rand.Source64 = New(9)
	rr := rand.New(src)
	for i := 0; i < 1000; i++ {
		if v := src.Int63(); v < 0 {
			t.Fatalf("Int63() = %d, want non-negative", v)
		}
		rr.Float64() // must not panic
	}
}

// TestDistinctSeedsDiverge guards against a degenerate seeding scheme: two
// adjacent seeds must not produce overlapping prefixes.
func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 64 draws", same)
	}
}
