package topology

import "testing"

func TestSquareLatticeStructure(t *testing.T) {
	g := SquareLattice(3, 3)
	if g.N != 9 {
		t.Fatal("node count wrong")
	}
	// corner degree 2, edge degree 3, center degree 4
	if g.Degree(0) != 2 || g.Degree(1) != 3 || g.Degree(4) != 4 {
		t.Fatalf("degrees wrong: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(4))
	}
}

func TestDistances(t *testing.T) {
	g := SquareLattice(4, 4)
	d := g.Distances(0)
	if d[0] != 0 || d[3] != 3 || d[15] != 6 {
		t.Fatalf("distances wrong: %v", d)
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	g := SquareLattice(3, 4)
	dm := g.AllPairsDistances()
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if dm[i][j] != dm[j][i] {
				t.Fatal("distance matrix asymmetric")
			}
		}
	}
}

func TestGreedyPlaceProducesValidPlacement(t *testing.T) {
	g := SquareLattice(4, 4)
	inter := []Interaction{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	p := g.GreedyPlace(4, inter)
	seen := map[int]bool{}
	for _, s := range p {
		if s < 0 || s >= g.N || seen[s] {
			t.Fatalf("invalid placement %v", p)
		}
		seen[s] = true
	}
	// Heavily-interacting qubits should land close: the static SWAP count
	// (distance − 1 per interaction, as the uec lattice baseline charges)
	// must be no worse than a pathological corner placement.
	dm := g.AllPairsDistances()
	swaps := func(placement []int) int {
		n := 0
		for _, in := range inter {
			n += dm[placement[in.A]][placement[in.B]] - 1
		}
		return n
	}
	bad := []int{0, 3, 12, 15} // four corners
	if got, worst := swaps(p), swaps(bad); got > worst {
		t.Fatalf("greedy placement (%d swaps) worse than corners (%d)", got, worst)
	}
}

func TestGraphPanics(t *testing.T) {
	cases := []func(){
		func() { NewGraph(0) },
		func() { NewGraph(2).AddEdge(0, 0) },
		func() { NewGraph(2).AddEdge(0, 5) },
		func() { SquareLattice(2, 2).GreedyPlace(9, nil) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
