package decoder

import "testing"

// TestSlowClustersTakeBFS builds the two cases in which a cluster's
// potentials do not determine its correction, so the peel must walk the
// cluster's BFS forest, and one in which they do. On the named pattern
// the prediction must match the reference and the bfs_clusters counter
// must move by the given count; every other defect pattern of the graph
// must decode as the reference does too.
//
//   - Odd cycle. Defects 0 and 2 on the square 0–1–2–3–0 fill all four
//     edges. Node 2 joins through 3, so its potential crosses the mask-1
//     edge 3–0, but the BFS from node 0 reaches it through 1 and peels
//     the mask-0 path: the potentials would predict 1, the peel 0.
//   - Disagreeing exits. The defect at 1 on boundary–0–1–2–boundary
//     fills both boundary edges in one round, with masks 1 and 0. The BFS
//     drains the defect through the lower-index one, edge 0; an exit from
//     the other edge would predict 0.
//   - Adjacent pair. Defects 1 and 2 on a repetition line fill the edge
//     between them and stop: no cycle, no exit, no walk.
func TestSlowClustersTakeBFS(t *testing.T) {
	cases := []struct {
		name    string
		g       *Graph
		defects []int
		want    uint64
		bfs     int64
	}{
		{"odd cycle", &Graph{NumNodes: 4, Edges: []Edge{
			{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 2}, {U: 3, V: 0, ObsMask: 1},
		}}, []int{0, 2}, 0, 1},
		{"disagreeing exits", &Graph{NumNodes: 3, Edges: []Edge{
			{U: 0, V: Boundary, ObsMask: 1}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: Boundary},
		}}, []int{1}, 1, 1},
		{"adjacent pair", lineGraph(4), []int{1, 2}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := NewUnionFind(c.g)
			ref := newRefUnionFind(c.g)
			dense := make([]bool, c.g.NumNodes)
			for _, d := range c.defects {
				dense[d] = true
			}
			bfs0, clusters0 := ufBFSClusters.Value(), ufClusters.Value()
			got := u.Decode(dense)
			if want := ref.Decode(dense); got != want || got != c.want {
				t.Fatalf("Decode=%d reference=%d, want %d", got, want, c.want)
			}
			if n := ufBFSClusters.Value() - bfs0; n != c.bfs {
				t.Errorf("bfs_clusters moved by %d, want %d", n, c.bfs)
			}
			if n := ufClusters.Value() - clusters0; n != 1 {
				t.Errorf("clusters moved by %d, want 1", n)
			}
			for pattern := 0; pattern < 1<<c.g.NumNodes; pattern++ {
				for i := range dense {
					dense[i] = pattern>>i&1 == 1
				}
				if got, want := u.Decode(dense), ref.Decode(dense); got != want {
					t.Errorf("pattern %b: Decode=%d reference=%d", pattern, got, want)
				}
			}
		})
	}
}
