package qec

import (
	"hetarch/internal/pauli"

	"testing"
)

func allCodes() []*Code {
	sc3, _ := Surface(3)
	sc4, _ := Surface(4)
	sc5, _ := Surface(5)
	return []*Code{Steane(), ReedMuller15(), TriColor5(), sc3, sc4, sc5}
}

func TestAllCodesValidate(t *testing.T) {
	for _, c := range allCodes() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestSteaneStructure(t *testing.T) {
	c := Steane()
	if c.N != 7 || c.Distance != 3 {
		t.Fatal("Steane parameters wrong")
	}
	if len(c.XStabs) != 3 || len(c.ZStabs) != 3 {
		t.Fatal("Steane stabilizer counts wrong")
	}
	for _, s := range c.XStabs {
		if s.Weight() != 4 {
			t.Fatal("Steane X stabilizer weight != 4")
		}
	}
}

func TestReedMullerStructure(t *testing.T) {
	c := ReedMuller15()
	if c.N != 15 || len(c.XStabs) != 4 || len(c.ZStabs) != 10 {
		t.Fatal("RM15 shape wrong")
	}
	for _, s := range c.XStabs {
		if s.Weight() != 8 {
			t.Fatal("RM15 X stabilizers must be weight 8")
		}
	}
	w4, w8 := 0, 0
	for _, s := range c.ZStabs {
		switch s.Weight() {
		case 4:
			w4++
		case 8:
			w8++
		default:
			t.Fatal("RM15 Z stabilizer with unexpected weight")
		}
	}
	if w4 != 6 || w8 != 4 {
		t.Fatalf("RM15 Z weights: %d weight-4, %d weight-8", w4, w8)
	}
}

func TestTriColor5Structure(t *testing.T) {
	c := TriColor5()
	if c.N != 19 || len(c.XStabs) != 9 || len(c.ZStabs) != 9 {
		t.Fatal("TriColor5 shape wrong")
	}
	w4, w6 := 0, 0
	for _, s := range c.XStabs {
		switch s.Weight() {
		case 4:
			w4++
		case 6:
			w6++
		default:
			t.Fatal("unexpected face weight")
		}
	}
	if w4 != 6 || w6 != 3 {
		t.Fatalf("TriColor5 face weights: %d w4, %d w6", w4, w6)
	}
}

func TestSurfaceStructure(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5, 7, 13} {
		c, layout := Surface(d)
		if c.N != d*d {
			t.Fatalf("d=%d: N=%d", d, c.N)
		}
		if c.NumStabilizers() != d*d-1 {
			t.Fatalf("d=%d: %d stabilizers, want %d", d, c.NumStabilizers(), d*d-1)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if len(layout.XPlaquettes) != len(c.XStabs) || len(layout.ZPlaquettes) != len(c.ZStabs) {
			t.Fatalf("d=%d: layout out of sync", d)
		}
		// Plaquette weights are 2 or 4 only.
		for _, p := range append(append([][]int{}, layout.XPlaquettes...), layout.ZPlaquettes...) {
			if len(p) != 2 && len(p) != 4 {
				t.Fatalf("d=%d: plaquette weight %d", d, len(p))
			}
		}
	}
}

func TestSurfacePanicsOnTinyDistance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Surface(1)
}

// certifyDistance checks the exact code distance by exhaustive search in
// both sectors.
func certifyDistance(t *testing.T, c *Code, maxw int) {
	t.Helper()
	xMasks := supportMasks(c.XStabs)
	zMasks := supportMasks(c.ZStabs)
	// Z-type logicals: commute with X stabs, outside Z-stab span.
	dz := MinLogicalWeight(c.N, xMasks, zMasks, maxw)
	// X-type logicals: commute with Z stabs, outside X-stab span.
	dx := MinLogicalWeight(c.N, zMasks, xMasks, maxw)
	if dz == 0 || dx == 0 {
		t.Fatalf("%s: no logical found up to weight %d", c.Name, maxw)
	}
	d := dz
	if dx < d {
		d = dx
	}
	if d != c.Distance {
		t.Fatalf("%s: true distance %d (dx=%d dz=%d), declared %d", c.Name, d, dx, dz, c.Distance)
	}
}

func TestSteaneDistance(t *testing.T) { certifyDistance(t, Steane(), 4) }
func TestRM15Distance(t *testing.T) {
	// RM15 is asymmetric: d_Z = 3, d_X = 7; overall distance is 3.
	c := ReedMuller15()
	xMasks := supportMasks(c.XStabs)
	zMasks := supportMasks(c.ZStabs)
	if dz := MinLogicalWeight(c.N, xMasks, zMasks, 4); dz != 3 {
		t.Fatalf("RM15 Z distance = %d, want 3", dz)
	}
	if dx := MinLogicalWeight(c.N, zMasks, xMasks, 7); dx != 7 {
		t.Fatalf("RM15 X distance = %d, want 7", dx)
	}
}

func TestTriColor5Distance(t *testing.T) {
	certifyDistance(t, TriColor5(), 6)
}

func TestSurface3Distance(t *testing.T) {
	c, _ := Surface(3)
	certifyDistance(t, c, 4)
}

func TestSurface4Distance(t *testing.T) {
	c, _ := Surface(4)
	certifyDistance(t, c, 5)
}

func TestSurface5Distance(t *testing.T) {
	c, _ := Surface(5)
	certifyDistance(t, c, 6)
}

func TestLogicalWeights(t *testing.T) {
	for _, c := range allCodes() {
		if w := c.LogicalX.Weight(); w < c.Distance {
			t.Errorf("%s: logical X weight %d below distance %d", c.Name, w, c.Distance)
		}
		if w := c.LogicalZ.Weight(); w < c.Distance {
			t.Errorf("%s: logical Z weight %d below distance %d", c.Name, w, c.Distance)
		}
	}
}

func TestSupportHelper(t *testing.T) {
	c := Steane()
	s := Support(c.XStabs[0])
	want := []int{0, 2, 4, 6}
	if len(s) != len(want) {
		t.Fatal("support length wrong")
	}
	for i := range s {
		if s[i] != want[i] {
			t.Fatal("support content wrong")
		}
	}
}

func TestReduceF2(t *testing.T) {
	rows := []uint64{0b0111, 0b1100}
	if ReduceF2(rows, 0b0111) != 0 {
		t.Fatal("vector in span should reduce to 0")
	}
	if ReduceF2(rows, 0b1011) != 0 {
		t.Fatal("0b1011 = 0b0111^0b1100 is in span")
	}
	if ReduceF2(rows, 0b0001) == 0 {
		t.Fatal("vector outside span reduced to 0")
	}
}

func TestIndependentPaulis(t *testing.T) {
	mk := func(supports ...[]int) []*pauli.String {
		var out []*pauli.String
		for _, s := range supports {
			p := pauli.NewString(70) // exercise the multi-word path
			for _, q := range s {
				p.SetLetter(q, 'X')
			}
			out = append(out, p)
		}
		return out
	}
	if !independentPaulis(mk([]int{0}, []int{1}, []int{69})) {
		t.Fatal("independent rows misreported")
	}
	if independentPaulis(mk([]int{0, 1}, []int{1, 69}, []int{0, 69})) {
		t.Fatal("dependent rows misreported")
	}
}
