package decoder

import (
	"fmt"
	"math/bits"

	"hetarch/internal/obs"
)

// Decode telemetry: one atomic add per shot, plus a defects-per-shot
// histogram — the distribution that explains decoder cost (union–find is
// almost-linear in defects, not graph size).
var (
	ufDecodes = obs.C("decoder.unionfind.decodes")
	ufDefects = obs.H("decoder.unionfind.defects_per_shot")
)

// Boundary is the virtual node index representing the open boundary of a
// matching graph. Defect chains may terminate on it through any boundary
// edge; every edge, boundary edges included, has unit length.
const Boundary = -1

// Edge is one error mechanism in a matching graph: it connects two detector
// nodes (or one node and the Boundary) and, when included in a correction,
// flips the logical observables in ObsMask.
type Edge struct {
	U, V    int
	ObsMask uint64
}

// Graph is a space–time matching graph: nodes are detectors, edges are
// single error mechanisms.
type Graph struct {
	NumNodes int
	Edges    []Edge
}

// Validate checks edge endpoints.
func (g *Graph) Validate() error {
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.NumNodes {
			return fmt.Errorf("decoder: edge %d has bad endpoint U=%d", i, e.U)
		}
		if e.V != Boundary && (e.V < 0 || e.V >= g.NumNodes) {
			return fmt.Errorf("decoder: edge %d has bad endpoint V=%d", i, e.V)
		}
	}
	return nil
}

// UnionFind is the Delfosse–Nickerson union–find decoder over a matching
// graph. It achieves near-matching accuracy on surface-code graphs at
// almost-linear cost — in the number of *defects*, not the graph size,
// which is what lets the Fig. 6/7 experiments run Monte Carlo at distance
// 13+ where shots with zero or one defect dominate.
//
// Sparsity rests on two mechanisms:
//
//   - Epoch-stamped scratch. Every per-decode array (cluster forest,
//     growth, peel state) carries a generation stamp; "resetting" for the
//     next shot is a single counter bump, and state is lazily initialized
//     the first time a node or edge is touched in a given decode. A shot
//     with d defects therefore costs O(cluster area around the defects),
//     never O(NumNodes + Edges).
//   - Arena slices. All transient lists (active roots, odd roots, grown
//     edges, peel-root bitsets, BFS queue/order) live on the decoder and
//     are reused across calls, so steady-state decoding performs zero
//     allocations.
//
// The decoder is reusable: Decode/DecodeBatch may be called repeatedly
// with different defect patterns. It is not safe for concurrent use; mc
// workers each hold a Clone.
type UnionFind struct {
	g *Graph
	// adjacency: per node, incident edge indices (boundary edges included on
	// their real endpoint)
	adj [][]int

	// epoch is the decode generation. A node or edge whose stamp differs
	// from it is in its pristine start-of-decode state; touchNode/touchEdge
	// initialize lazily on first contact.
	epoch     uint64
	nodeEpoch []uint64
	edgeEpoch []uint64

	// cluster state, valid where nodeEpoch/edgeEpoch == epoch
	parent   []int
	size     []int
	parity   []int  // defect count mod 2 per cluster root
	boundary []bool // cluster touches the boundary
	growth   []int  // per-edge growth 0..2; 2 means on the cluster tree
	// edgeList[root] holds the indices of edges incident to the cluster;
	// merged on union so growth never rescans the whole graph. Slots keep
	// their capacity across decodes.
	edgeList [][]int

	// growth-phase arenas
	defects   []int    // scratch defect list for the dense entry point
	active    []int    // cluster representatives, first-defect order
	oddRoots  []int    // odd, boundary-free roots for the current round
	treeEdges []int    // edges grown to 2 this decode, in growth order
	seenGen   uint64   // generation for seenStamp
	seenStamp []uint64 // per-node dedup stamp for odd/active recomputation

	// peel arenas, valid where peelEpoch == epoch
	peelEpoch    []uint64
	visited      []bool
	defNow       []bool
	parentEdge   []int
	boundaryEdge []int
	seedEdges    []uint64 // bitset of grown boundary edges; zero between decodes
	rootNodes    []uint64 // bitset of candidate BFS roots; zero between decodes
	order        []int
	queue        []int // BFS ring: qHead indexes the next pop, so the arena's
	qHead        int   // backing array is reused instead of sliced away

	// batchDefects[s] is shot s's defect list, rebuilt by DecodeBatch's
	// one-pass transpose of the packed detector words.
	batchDefects [64][]int
}

// NewUnionFind builds a decoder for the graph.
func NewUnionFind(g *Graph) *UnionFind {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	u := &UnionFind{g: g}
	u.adj = make([][]int, g.NumNodes)
	for i, e := range g.Edges {
		u.adj[e.U] = append(u.adj[e.U], i)
		if e.V != Boundary {
			u.adj[e.V] = append(u.adj[e.V], i)
		}
	}
	u.nodeEpoch = make([]uint64, g.NumNodes)
	u.edgeEpoch = make([]uint64, len(g.Edges))
	u.parent = make([]int, g.NumNodes)
	u.size = make([]int, g.NumNodes)
	u.parity = make([]int, g.NumNodes)
	u.boundary = make([]bool, g.NumNodes)
	u.growth = make([]int, len(g.Edges))
	u.edgeList = make([][]int, g.NumNodes)
	u.seenStamp = make([]uint64, g.NumNodes)
	u.peelEpoch = make([]uint64, g.NumNodes)
	u.visited = make([]bool, g.NumNodes)
	u.defNow = make([]bool, g.NumNodes)
	u.parentEdge = make([]int, g.NumNodes)
	u.boundaryEdge = make([]int, g.NumNodes)
	u.seedEdges = make([]uint64, (len(g.Edges)+63)/64)
	u.rootNodes = make([]uint64, (g.NumNodes+63)/64)
	return u
}

// Clone returns an independent decoder over the same (shared, read-only)
// graph. Decode mutates per-call scratch (cluster forest, growth fronts,
// arenas), so each mc worker needs its own instance; a fresh build is
// equivalent to a deep copy because all scratch is epoch-invalidated.
func (u *UnionFind) Clone() *UnionFind {
	return NewUnionFind(u.g)
}

// touchNode lazily initializes node i's cluster state for the current
// decode: a singleton, even-parity, boundary-free cluster whose edge list
// is its adjacency (the slot's capacity is recycled across decodes).
func (u *UnionFind) touchNode(i int) {
	if u.nodeEpoch[i] == u.epoch {
		return
	}
	u.nodeEpoch[i] = u.epoch
	u.parent[i] = i
	u.size[i] = 1
	u.parity[i] = 0
	u.boundary[i] = false
	u.edgeList[i] = append(u.edgeList[i][:0], u.adj[i]...)
}

// touchEdge lazily initializes edge ei's growth state for the current
// decode.
func (u *UnionFind) touchEdge(ei int) {
	if u.edgeEpoch[ei] == u.epoch {
		return
	}
	u.edgeEpoch[ei] = u.epoch
	u.growth[ei] = 0
}

// grownFull reports whether edge ei has reached full growth (is on a
// cluster tree) this decode, without stamping untouched edges.
func (u *UnionFind) grownFull(ei int) bool {
	return u.edgeEpoch[ei] == u.epoch && u.growth[ei] >= 2
}

// touchPeel lazily initializes node i's peel-phase state.
func (u *UnionFind) touchPeel(i int) {
	if u.peelEpoch[i] == u.epoch {
		return
	}
	u.peelEpoch[i] = u.epoch
	u.visited[i] = false
	u.defNow[i] = false
	u.parentEdge[i] = -1
	u.boundaryEdge[i] = -1
}

func (u *UnionFind) find(x int) int {
	u.touchNode(x)
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the clusters of a and b, returning the new root.
func (u *UnionFind) union(a, b int) int {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.parity[ra] = (u.parity[ra] + u.parity[rb]) % 2
	u.boundary[ra] = u.boundary[ra] || u.boundary[rb]
	u.edgeList[ra] = append(u.edgeList[ra], u.edgeList[rb]...)
	u.edgeList[rb] = u.edgeList[rb][:0] // keep the slot's capacity
	return ra
}

// Decode takes the dense defect pattern (one bool per node) and returns
// the predicted logical observable flips of the minimum-ish-weight
// correction. It gathers the set indices and delegates to the sparse core,
// so the hand-built graph tests and the fuzz harness, which drive the
// decoder through this dense adapter, exercise the same algorithm as
// DecodeBatch.
func (u *UnionFind) Decode(defects []bool) uint64 {
	if len(defects) != u.g.NumNodes {
		panic("decoder: defect vector length mismatch")
	}
	u.defects = u.defects[:0]
	for i, d := range defects {
		if d {
			u.defects = append(u.defects, i)
		}
	}
	return u.decode(u.defects)
}

// DecodeBatch decodes the first nshots shots of a packed 64-shot detector
// batch, writing per-shot observable-flip predictions into preds[:nshots].
// One pass over the detector words transposes set bits into per-shot
// defect lists (O(detectors + defects) for the whole batch, instead of 64
// dense scans), then each shot runs through the sparse core.
// Allocation-free after warm-up.
func (u *UnionFind) DecodeBatch(words []uint64, nshots int, preds []uint64) {
	if len(words) != u.g.NumNodes {
		panic("decoder: detector word count mismatch")
	}
	if nshots < 0 || nshots > 64 {
		panic("decoder: batch shot count out of range")
	}
	if len(preds) < nshots {
		panic("decoder: prediction buffer too small")
	}
	for s := 0; s < nshots; s++ {
		u.batchDefects[s] = u.batchDefects[s][:0]
	}
	mask := ^uint64(0)
	if nshots < 64 {
		mask = 1<<uint(nshots) - 1
	}
	for d, w := range words {
		w &= mask
		for w != 0 {
			s := bits.TrailingZeros64(w)
			w &= w - 1
			u.batchDefects[s] = append(u.batchDefects[s], d)
		}
	}
	for s := 0; s < nshots; s++ {
		preds[s] = u.decode(u.batchDefects[s])
	}
}

// decode is the sparse core: defects is the strictly-increasing list of
// defect node indices. All scratch is epoch-stamped or arena-backed, so a
// steady-state call allocates nothing and touches only the neighborhoods
// the defects grow into.
func (u *UnionFind) decode(defects []int) uint64 {
	ufDecodes.Inc()
	ufDefects.Observe(int64(len(defects)))
	u.epoch++

	// Seed the defect clusters. Active clusters are represented in
	// first-defect order, the order the growth loop visits them in.
	u.active = u.active[:0]
	u.treeEdges = u.treeEdges[:0]
	for _, i := range defects {
		u.touchNode(i)
		u.parity[i] = 1
		u.active = append(u.active, i)
	}

	// Growth loop: each iteration grows every boundary edge of every odd,
	// boundary-free cluster by one half-step; fully-grown edges merge
	// clusters.
	for {
		u.oddRoots = u.oddRoots[:0]
		u.seenGen++
		for _, a := range u.active {
			r := u.find(a)
			if u.seenStamp[r] == u.seenGen {
				continue
			}
			u.seenStamp[r] = u.seenGen
			if u.parity[r] == 1 && !u.boundary[r] {
				u.oddRoots = append(u.oddRoots, r)
			}
		}
		if len(u.oddRoots) == 0 {
			break
		}
		progress := false
		for _, root := range u.oddRoots {
			root = u.find(root) // may have been merged earlier this round
			// Grow the cluster's incident edges. The slice header is
			// snapshotted: edges appended by unions during this pass are
			// grown in a later round, matching the historical behavior.
			list := u.edgeList[root]
			for _, ei := range list {
				u.touchEdge(ei)
				if u.growth[ei] >= 2 {
					continue
				}
				u.growth[ei]++
				progress = true
				if u.growth[ei] == 2 {
					e := u.g.Edges[ei]
					u.treeEdges = append(u.treeEdges, ei)
					if e.V == Boundary {
						r := u.find(e.U)
						u.boundary[r] = true
					} else {
						newRoot := u.union(e.U, e.V)
						if newRoot != root {
							// The cluster was absorbed into a larger one;
							// its remaining edges were already appended to
							// the new root's list by union.
							root = newRoot
						}
					}
				}
			}
			// Compact fully-grown edges out of the surviving root's list so
			// later rounds don't rescan them. Entries an interleaved union
			// duplicated are left in place: a duplicate's second visit falls
			// into the growth>=2 skip, so dropping only grown edges is
			// behavior-preserving.
			if u.find(root) == root {
				cur := u.edgeList[root]
				w := 0
				for _, ei := range cur {
					if u.grownFull(ei) {
						continue
					}
					cur[w] = ei
					w++
				}
				u.edgeList[root] = cur[:w]
			}
		}
		if !progress {
			// An odd cluster has exhausted its neighborhood without reaching
			// the boundary or another defect (disconnected graph). Stop;
			// the stranded defect surfaces as a decoding failure in peel.
			break
		}
		// Recompute active roots, keeping first-occurrence order.
		u.seenGen++
		next := u.active[:0]
		for _, a := range u.active {
			r := u.find(a)
			if u.seenStamp[r] != u.seenGen {
				u.seenStamp[r] = u.seenGen
				next = append(next, r)
			}
		}
		u.active = next
	}

	return u.peel(defects)
}

// setBit marks index i in the bitset s.
func setBit(s []uint64, i int) {
	s[i>>6] |= 1 << (uint(i) & 63)
}

// peel extracts a correction from the grown cluster forests and returns the
// XOR of the observable masks of the chosen edges. Only nodes reachable
// from grown edges or defects are visited; everything else is untouched
// scratch from some earlier epoch.
func (u *UnionFind) peel(defects []int) uint64 {
	for _, d := range defects {
		u.touchPeel(d)
		u.defNow[d] = true
	}

	// Build BFS forests over fully-grown edges. Roots are nodes adjacent to
	// grown boundary edges (so defects can drain into the boundary), then
	// the lowest-index unvisited node of each remaining tree. Both kinds of
	// seed are marked in a bitset and read back word by word in ascending
	// index order (zeroing each word as it is read), so the traversal
	// matches a dense index-order scan.
	u.order = u.order[:0]
	u.queue = u.queue[:0]
	u.qHead = 0
	for _, ei := range u.treeEdges {
		e := u.g.Edges[ei]
		setBit(u.rootNodes, e.U)
		if e.V == Boundary {
			setBit(u.seedEdges, ei)
		} else {
			setBit(u.rootNodes, e.V)
		}
	}
	for _, d := range defects {
		setBit(u.rootNodes, d)
	}
	for wi, w := range u.seedEdges {
		u.seedEdges[wi] = 0
		for ; w != 0; w &= w - 1 {
			ei := wi<<6 | bits.TrailingZeros64(w)
			v := u.g.Edges[ei].U
			u.touchPeel(v)
			if !u.visited[v] {
				u.visited[v] = true
				u.boundaryEdge[v] = ei
				u.queue = append(u.queue, v)
			}
		}
	}
	u.bfs() // drain the boundary-rooted trees first
	for wi, w := range u.rootNodes {
		u.rootNodes[wi] = 0
		for ; w != 0; w &= w - 1 {
			start := wi<<6 | bits.TrailingZeros64(w)
			u.touchPeel(start)
			if !u.visited[start] {
				u.visited[start] = true
				u.queue = append(u.queue, start)
				u.bfs()
			}
		}
	}

	// Peel in reverse BFS order: leaves first. A defect at a node is pushed
	// along its parent edge (flipping the correction) onto its parent; roots
	// with boundary edges drain into the boundary.
	var obsMask uint64
	for i := len(u.order) - 1; i >= 0; i-- {
		v := u.order[i]
		if !u.defNow[v] {
			continue
		}
		if pe := u.parentEdge[v]; pe >= 0 {
			e := u.g.Edges[pe]
			obsMask ^= e.ObsMask
			other := e.U
			if other == v {
				other = e.V
			}
			u.defNow[v] = false
			u.defNow[other] = !u.defNow[other]
		} else if be := u.boundaryEdge[v]; be >= 0 {
			obsMask ^= u.g.Edges[be].ObsMask
			u.defNow[v] = false
		}
		// A defect stuck at a root with no boundary edge means the cluster
		// had odd parity without boundary contact, which the growth phase
		// prevents; leave it (decoder failure surfaces as a logical error).
	}
	return obsMask
}

// bfs drains the queue over fully-grown edges, appending visits to order
// and recording each node's tree parent edge.
func (u *UnionFind) bfs() {
	for u.qHead < len(u.queue) {
		v := u.queue[u.qHead]
		u.qHead++
		u.order = append(u.order, v)
		for _, ei := range u.adj[v] {
			if !u.grownFull(ei) {
				continue
			}
			e := u.g.Edges[ei]
			var w int
			switch {
			case e.V == Boundary:
				continue
			case e.U == v:
				w = e.V
			default:
				w = e.U
			}
			u.touchPeel(w)
			if !u.visited[w] {
				u.visited[w] = true
				u.parentEdge[w] = ei
				u.queue = append(u.queue, w)
			}
		}
	}
}
