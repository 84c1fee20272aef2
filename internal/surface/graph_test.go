package surface

import "testing"

// TestGraphObservableIsPlanar pins the property that lets the union–find
// peel read nearly every cluster's correction from XOR potentials: in
// buildGraph's matching graph, for d = 3, 5 and 13 in both bases, every
// fundamental cycle of the non-boundary edges carries zero observable, and
// the boundary edges on one side of the lattice share one exit (the
// observable of a path from a fixed node out through that edge), while
// the two sides' exits differ. So a cluster takes the BFS peel only when
// it reaches both sides.
func TestGraphObservableIsPlanar(t *testing.T) {
	for _, d := range []int{3, 5, 13} {
		for _, basis := range []byte{'Z', 'X'} {
			p := DefaultParams(d)
			p.Basis = basis
			e, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			g := e.Graph

			// A spanning tree of the non-boundary edges, each node's
			// potential the observable of its tree path to the root; an
			// edge that closes a cycle closes a fundamental one.
			parent := make([]int, g.NumNodes)
			pot := make([]uint64, g.NumNodes)
			for i := range parent {
				parent[i] = i
			}
			find := func(x int) (int, uint64) {
				var p uint64
				for ; parent[x] != x; x = parent[x] {
					p ^= pot[x]
				}
				return x, p
			}
			trees := g.NumNodes
			for i, ed := range g.Edges {
				if ed.V < 0 {
					continue
				}
				ru, pu := find(ed.U)
				rv, pv := find(ed.V)
				if ru != rv {
					parent[rv], pot[rv] = ru, pu^pv^ed.ObsMask
					trees--
				} else if pu^pv^ed.ObsMask != 0 {
					t.Errorf("d=%d %c: the cycle edge %d closes carries observable %d", d, basis, i, pu^pv^ed.ObsMask)
				}
			}
			if trees != 1 {
				t.Fatalf("d=%d %c: the non-boundary edges form %d components, want 1", d, basis, trees)
			}

			// A boundary edge's side is its plaquette's: the top or bottom
			// row of faces in the Z basis, the left or right column in X.
			coords := e.layout.ZCoords
			if basis == 'X' {
				coords = e.layout.XCoords
			}
			exits := map[int]map[uint64]bool{1: {}, d - 1: {}}
			for _, ed := range g.Edges {
				if ed.V >= 0 {
					continue
				}
				c := coords[ed.U%len(coords)]
				side := c.Row
				if basis == 'X' {
					side = c.Col
				}
				if exits[side] == nil {
					t.Fatalf("d=%d %c: boundary edge at node %d, whose face %v is on neither boundary", d, basis, ed.U, c)
				}
				_, p := find(ed.U)
				exits[side][p^ed.ObsMask] = true
			}
			if len(exits[1]) != 1 || len(exits[d-1]) != 1 {
				t.Fatalf("d=%d %c: exits %v on one side and %v on the other, want one value each", d, basis, exits[1], exits[d-1])
			}
			for x := range exits[1] {
				if exits[d-1][x] {
					t.Errorf("d=%d %c: both sides exit with %d, want different exits", d, basis, x)
				}
			}
		}
	}
}
