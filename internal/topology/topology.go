// Package topology models device connectivity graphs and the SWAP-routing
// cost of executing circuits on them. It provides the homogeneous
// "sea-of-qubits" square-lattice baseline the paper's evaluation (Sections
// 4.2 and 6) compares heterogeneous modules against: a lattice as large as
// needed, with a greedy placement and all-pairs shortest-path distances
// (a pair at distance d pays d − 1 SWAPs) standing in for an optimizing
// transpiler.
package topology

import "fmt"

// Graph is an undirected connectivity graph over device sites.
type Graph struct {
	N   int
	adj [][]int
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic("topology: graph needs n > 0")
	}
	return &Graph{N: n, adj: make([][]int, n)}
}

// AddEdge inserts an undirected edge.
func (g *Graph) AddEdge(a, b int) {
	if a < 0 || a >= g.N || b < 0 || b >= g.N || a == b {
		panic(fmt.Sprintf("topology: bad edge (%d,%d)", a, b))
	}
	for _, x := range g.adj[a] {
		if x == b {
			return
		}
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// SquareLattice returns a w×h grid graph with nearest-neighbor edges; node
// (r, c) has index r*w + c.
func SquareLattice(w, h int) *Graph {
	g := NewGraph(w * h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			v := r*w + c
			if c+1 < w {
				g.AddEdge(v, v+1)
			}
			if r+1 < h {
				g.AddEdge(v, v+w)
			}
		}
	}
	return g
}

// Distances returns BFS hop counts from src to every node (-1 if
// unreachable).
func (g *Graph) Distances(src int) []int {
	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// AllPairsDistances returns the full BFS distance matrix.
func (g *Graph) AllPairsDistances() [][]int {
	out := make([][]int, g.N)
	for v := 0; v < g.N; v++ {
		out[v] = g.Distances(v)
	}
	return out
}

// Interaction is one two-qubit operation between logical qubits.
type Interaction struct{ A, B int }

// GreedyPlace maps logical qubits 0..k-1 onto lattice sites, placing the
// most interaction-heavy qubits first at central sites and their partners
// nearby — a lightweight stand-in for transpiler placement.
func (g *Graph) GreedyPlace(k int, interactions []Interaction) []int {
	if k > g.N {
		panic("topology: more logical qubits than sites")
	}
	weight := make([]int, k)
	for _, in := range interactions {
		weight[in.A]++
		weight[in.B]++
	}
	// Order logical qubits by descending interaction weight.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < k; i++ {
		for j := i; j > 0 && weight[order[j]] > weight[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	// Central site first: pick the node minimizing eccentricity-ish cost
	// via total distance.
	dm := g.AllPairsDistances()
	center, best := 0, 1<<30
	for v := 0; v < g.N; v++ {
		sum := 0
		for w := 0; w < g.N; w++ {
			sum += dm[v][w]
		}
		if sum < best {
			best = sum
			center = v
		}
	}
	placement := make([]int, k)
	used := make([]bool, g.N)
	for i, l := range order {
		if i == 0 {
			placement[l] = center
			used[center] = true
			continue
		}
		// Place near already-placed partners: minimize summed distance to
		// placed interaction partners (fall back to distance to center).
		bestSite, bestCost := -1, 1<<30
		for s := 0; s < g.N; s++ {
			if used[s] {
				continue
			}
			cost := 0
			linked := false
			for _, in := range interactions {
				var partner int
				switch l {
				case in.A:
					partner = in.B
				case in.B:
					partner = in.A
				default:
					continue
				}
				// partner placed already?
				placed := false
				for j := 0; j < i; j++ {
					if order[j] == partner {
						placed = true
						break
					}
				}
				if placed {
					cost += dm[s][placement[partner]]
					linked = true
				}
			}
			if !linked {
				cost = dm[s][center]
			}
			if cost < bestCost {
				bestCost = cost
				bestSite = s
			}
		}
		placement[l] = bestSite
		used[bestSite] = true
	}
	return placement
}
