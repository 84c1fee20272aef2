package decoder

import (
	"fmt"
	"math"
	"math/bits"

	"hetarch/internal/obs"
)

// Decode telemetry: one atomic add per shot, plus a defects-per-shot
// histogram — the distribution that explains decoder cost (union–find is
// almost-linear in defects, not graph size). The cluster counts say how
// many final clusters the peel read from their potentials and how many it
// had to walk; the decoder sums them and adds them once per Decode or
// DecodeBatch call.
var (
	ufDecodes     = obs.C("decoder.unionfind.decodes")
	ufDefects     = obs.H("decoder.unionfind.defects_per_shot")
	ufClusters    = obs.C("decoder.unionfind.clusters")
	ufBFSClusters = obs.C("decoder.unionfind.bfs_clusters")
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
//   - CSR adjacency. NewUnionFind lays out each node's incident edges
//     once as (edge, neighbour) int32 arcs in ascending edge order, a
//     self-loop twice; clones share them read-only, as they share the
//     Graph.
//   - Open-vertex chains. A cluster links its members that still have an
//     arc below full growth into a chain, so a union is an O(1) splice.
//     A growth pass prunes closed members, then walks the chain up to the
//     tail it has at that moment, raising each non-full edge one
//     half-step per arc; chains spliced in mid-pass wait for the next
//     pass. So a pass raises every non-full edge incident to the cluster,
//     as it stood when the pass began, by the number of its endpoints
//     inside it, capped at full. Which edges end up full, the peel's only
//     input, does not depend on the visiting order, so the predictions
//     equal those of the historical loop over merged per-cluster edge
//     lists (the reference in the tests) bit for bit.
//   - XOR potentials. A node's pot is the XOR of ObsMask along full
//     edges to its forest parent, so the XOR of pots up to the root is
//     the observable of one full-edge path from the node to its root.
//     Each root keeps its defects' accumulated potentials, its least
//     node and, once a boundary edge fills, its exit: that edge's node
//     potential XOR its mask. A root is flagged slow when a fill closes
//     a cycle that flips an observable or two exits disagree. In an
//     unflagged cluster every full-edge path between two points carries
//     the same observable, so the peel reads its correction in O(1);
//     only flagged clusters take the BFS peel.
//   - Epoch stamps. A node's state sits in one struct stamped with the
//     decode generation, and an edge's state is one word epoch<<2|growth,
//     full exactly when it equals epoch<<2|2. Resetting for the next shot
//     is a counter bump, so a shot costs O(cluster area around its
//     defects), never O(NumNodes + Edges). At epoch 2^30 every stamp is
//     cleared and the epoch restarts at 1.
//   - Arena slices. The transient lists and the grown-boundary bitset
//     live on the decoder and are reused across calls, so steady-state
//     decoding performs zero allocations.
//
// The decoder is reusable: Decode/DecodeBatch may be called repeatedly
// with different defect patterns. It is not safe for concurrent use; mc
// workers each hold a Clone.
type UnionFind struct {
	g *Graph
	// node v's arcs are arcs[first[v]:first[v+1]]; shared by clones
	first []int32
	arcs  []ufArc

	// epoch is the decode generation, in [1, epochWrap). A node or peel
	// slot whose stamp differs from it, or an edge whose word does not
	// carry it, is in its pristine start-of-decode state.
	epoch uint32
	nodes []ufNode
	grown []uint32 // per edge: epoch<<2 | growth, growth 2 meaning full
	peels []peelNode

	// growth-phase arenas
	defects  []int32 // scratch defect list for the dense entry point
	active   []int32 // cluster representatives, first-defect order
	oddRoots []int32 // odd, boundary-free roots for the current round
	seenGen  uint32  // dedup generation for ufNode.seen, reset per decode

	// peel arenas. Growth marks grown boundary edges in seedEdges; the
	// peel zeroes it, reading it back in ascending order when a flagged
	// cluster needs boundary seeds, so it is empty between decodes.
	seedEdges []uint64
	queue     []int32 // BFS ring and visit order: qHead indexes the next pop
	qHead     int

	// clusters and bfsClusters count final clusters, and those the BFS
	// peeled, since the last flush to the package counters.
	clusters, bfsClusters int64

	// batchDefects[s] is shot s's defect list, rebuilt by DecodeBatch's
	// one-pass transpose of the packed detector words.
	batchDefects [64][]int32
}

// epochWrap bounds the decode generation so that an edge word
// epoch<<2|growth fits in 32 bits.
const epochWrap = 1 << 30

// ufArc is one entry of a node's adjacency: an incident edge and the node
// at its other end (Boundary for a boundary edge, the node itself for a
// self-loop).
type ufArc struct {
	edge, nbr int32
}

// ufNode is a node's growth-phase state, valid where epoch is the
// decoder's. Only epoch, parent, open, next and pot describe every node;
// the rest is meaningful on cluster roots, exit only once boundary is set.
// pot is relative to the parent; acc and exit, like the potential find
// returns, are relative to the root. The layout fills 64 bytes.
type ufNode struct {
	epoch        uint32
	parent, size int32
	open         int32  // arcs whose edge is not yet full
	next         int32  // next vertex on the open-vertex chain, or -1
	head, tail   int32  // the cluster's chain, -1 when it is empty
	seen         uint32 // last seenGen that listed this root
	least        int32  // the cluster's least node index
	// slow: a fill closed a cycle that flips an observable, or two exits
	// disagree, so the peel must walk the cluster's BFS forest.
	parity, boundary, slow bool
	pot                    uint64 // ObsMask XOR along full edges to parent; 0 at a root
	acc                    uint64 // XOR of the defects' potentials
	exit                   uint64 // a grown boundary edge's node potential ^ its ObsMask
}

// peelNode is a node's peel-phase state, valid where epoch is the
// decoder's. edge is the tree edge to its BFS parent, or the grown
// boundary edge of a boundary-seeded root (parent -1), or -1 for any
// other root.
type peelNode struct {
	epoch           uint32
	edge, parent    int32
	visited, defect bool
}

// NewUnionFind builds a decoder for the graph.
func NewUnionFind(g *Graph) *UnionFind {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if g.NumNodes >= math.MaxInt32 || len(g.Edges) > math.MaxInt32/2 {
		panic("decoder: graph too large for int32 indices")
	}
	// Count each node's arcs into first[v+1] and prefix-sum them, fill the
	// arcs in edge order with first[v] as node v's write cursor, then
	// shift the cursors, which end at the next node's start, back by one.
	first := make([]int32, g.NumNodes+1)
	for _, e := range g.Edges {
		first[e.U+1]++
		if e.V != Boundary {
			first[e.V+1]++
		}
	}
	for v := 0; v < g.NumNodes; v++ {
		first[v+1] += first[v]
	}
	arcs := make([]ufArc, first[g.NumNodes])
	for i, e := range g.Edges {
		arcs[first[e.U]] = ufArc{edge: int32(i), nbr: int32(e.V)}
		first[e.U]++
		if e.V != Boundary {
			arcs[first[e.V]] = ufArc{edge: int32(i), nbr: int32(e.U)}
			first[e.V]++
		}
	}
	copy(first[1:], first[:g.NumNodes])
	first[0] = 0
	return newUnionFind(g, first, arcs)
}

// newUnionFind allocates a decoder's scratch around a shared adjacency.
func newUnionFind(g *Graph, first []int32, arcs []ufArc) *UnionFind {
	return &UnionFind{
		g:         g,
		first:     first,
		arcs:      arcs,
		nodes:     make([]ufNode, g.NumNodes),
		grown:     make([]uint32, len(g.Edges)),
		peels:     make([]peelNode, g.NumNodes),
		seedEdges: make([]uint64, (len(g.Edges)+63)/64),
	}
}

// Clone returns an independent decoder over the same graph. The graph and
// the adjacency are shared read-only; the clone allocates only its own
// scratch, which Decode mutates, so each mc worker needs its own.
func (u *UnionFind) Clone() *UnionFind {
	return newUnionFind(u.g, u.first, u.arcs)
}

// touch lazily initializes node i's state for the current decode: a
// singleton, even-parity, boundary-free cluster whose chain holds i.
func (u *UnionFind) touch(i int32) *ufNode {
	n := &u.nodes[i]
	if n.epoch != u.epoch {
		*n = ufNode{epoch: u.epoch, parent: i, size: 1, open: u.first[i+1] - u.first[i], next: -1, head: i, tail: i, least: i}
	}
	return n
}

// touchPeel lazily initializes node i's peel-phase state.
func (u *UnionFind) touchPeel(i int32) *peelNode {
	p := &u.peels[i]
	if p.epoch != u.epoch {
		*p = peelNode{epoch: u.epoch, edge: -1, parent: -1}
	}
	return p
}

// find returns the root of touched node x's cluster and x's potential
// relative to it, halving the path: a node that skips its parent takes the
// parent's potential into its own.
func (u *UnionFind) find(x int32) (root int32, pot uint64) {
	n := u.nodes
	for {
		p := n[x].parent
		if p == x {
			return x, pot
		}
		n[x].pot ^= n[p].pot
		n[x].parent = n[p].parent
		pot ^= n[x].pot
		x = n[x].parent
	}
}

// union merges the clusters of touched nodes a and b, which a full edge
// of mask m now joins, splicing the smaller cluster's chain after the
// larger one's tail. The absorbed root's potential becomes the observable
// of the path from one root through a, the edge and b to the other, and
// rebases its accumulator and exit. When a and b already share a root
// that path is a cycle, and one that flips an observable flags the
// cluster.
func (u *UnionFind) union(a, b int32, m uint64) {
	ra, pa := u.find(a)
	rb, pb := u.find(b)
	n := u.nodes
	d := pa ^ pb ^ m
	if ra == rb {
		if d != 0 {
			n[ra].slow = true
		}
		return
	}
	if n[ra].size < n[rb].size {
		ra, rb = rb, ra
	}
	big, small := &n[ra], &n[rb]
	small.parent = ra
	small.pot = d
	big.size += small.size
	if small.parity {
		big.acc ^= d
	}
	big.acc ^= small.acc
	big.parity = big.parity != small.parity
	if small.boundary {
		big.exitAt(small.exit ^ d)
	}
	big.slow = big.slow || small.slow
	big.least = min(big.least, small.least)
	if small.head >= 0 {
		if big.head < 0 {
			big.head = small.head
		} else {
			n[big.tail].next = small.head
		}
		big.tail = small.tail
	}
}

// exitAt records boundary exit x, relative to root n, flagging the cluster
// when an exit it already has disagrees.
func (n *ufNode) exitAt(x uint64) {
	if n.boundary && n.exit != x {
		n.slow = true
	}
	n.exit, n.boundary = x, true
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
			u.defects = append(u.defects, int32(i))
		}
	}
	pred := u.decode(u.defects)
	u.flushCounts()
	return pred
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
			u.batchDefects[s] = append(u.batchDefects[s], int32(d))
		}
	}
	for s := 0; s < nshots; s++ {
		preds[s] = u.decode(u.batchDefects[s])
	}
	u.flushCounts()
}

// flushCounts adds the cluster counts gathered since the last call to the
// package counters: two atomic adds per Decode or DecodeBatch call, not
// per shot.
func (u *UnionFind) flushCounts() {
	ufClusters.Add(u.clusters)
	ufBFSClusters.Add(u.bfsClusters)
	u.clusters, u.bfsClusters = 0, 0
}

// decode is the sparse core: defects is the strictly-increasing list of
// defect node indices. All scratch is epoch-stamped or arena-backed, so a
// steady-state call allocates nothing and touches only the neighborhoods
// the defects grow into.
func (u *UnionFind) decode(defects []int32) uint64 {
	ufDecodes.Inc()
	ufDefects.Observe(int64(len(defects)))
	u.epoch++
	if u.epoch == epochWrap {
		clear(u.nodes)
		clear(u.grown)
		clear(u.peels)
		u.epoch = 1
	}
	u.seenGen = 0

	// Seed the defect clusters. Active clusters are represented in
	// first-defect order, the order the growth loop visits them in.
	u.active = u.active[:0]
	for _, i := range defects {
		u.touch(i).parity = true
		u.active = append(u.active, i)
	}

	// Growth loop: each round runs one pass over every cluster that was
	// odd and boundary-free when the round began, in active order; a
	// cluster merged into one grown earlier in the round is grown again.
	for {
		u.oddRoots = u.oddRoots[:0]
		u.seenGen++
		for _, a := range u.active {
			r, _ := u.find(a)
			n := &u.nodes[r]
			if n.seen == u.seenGen {
				continue
			}
			n.seen = u.seenGen
			if n.parity && !n.boundary {
				u.oddRoots = append(u.oddRoots, r)
			}
		}
		if len(u.oddRoots) == 0 {
			break
		}
		progress := false
		for _, r := range u.oddRoots {
			if r, _ = u.find(r); u.grow(r) {
				progress = true
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
			r, _ := u.find(a)
			if n := &u.nodes[r]; n.seen != u.seenGen {
				n.seen = u.seenGen
				next = append(next, r)
			}
		}
		u.active = next
	}

	return u.peel(defects)
}

// grow runs one growth pass over the cluster rooted at r and reports
// whether any edge grew. It prunes closed vertices from the chain, then
// raises each non-full edge by one half-step per arc of the remaining
// vertices, up to the tail the chain has now: unions during the pass
// splice chains after that tail, or splice this chain after another's
// with its own links intact.
func (u *UnionFind) grow(r int32) bool {
	v, end := u.prune(r)
	if v < 0 {
		return false
	}
	half, full := u.epoch<<2|1, u.epoch<<2|2
	grew := false
	for {
		for _, a := range u.arcs[u.first[v]:u.first[v+1]] {
			switch w := &u.grown[a.edge]; *w {
			case full:
				continue
			case half:
				*w = full
				u.fill(v, a)
			default:
				*w = half
			}
			grew = true
		}
		if v == end {
			return grew
		}
		v = u.nodes[v].next
	}
}

// prune unlinks the vertices of root r's chain that have no open arc left
// and returns the chain's ends, -1 when it is empty.
func (u *UnionFind) prune(r int32) (head, tail int32) {
	n := u.nodes
	prev := int32(-1)
	for v := n[r].head; v >= 0; v = n[v].next {
		switch {
		case n[v].open > 0:
			prev = v
		case prev < 0:
			n[r].head = n[v].next
		default:
			n[prev].next = n[v].next
		}
	}
	n[r].tail = prev
	return n[r].head, prev
}

// fill handles arc a of vertex v reaching full growth: both endpoints
// lose an open arc, and the edge merges their clusters or, for a boundary
// edge, gives v's cluster an exit and marks the edge as a peel seed.
func (u *UnionFind) fill(v int32, a ufArc) {
	u.nodes[v].open--
	m := u.g.Edges[a.edge].ObsMask
	if a.nbr == Boundary {
		setBit(u.seedEdges, int(a.edge))
		r, p := u.find(v)
		u.nodes[r].exitAt(p ^ m)
		return
	}
	u.touch(a.nbr).open--
	u.union(v, a.nbr, m)
}

// setBit marks index i in the bitset s.
func setBit(s []uint64, i int) {
	s[i>>6] |= 1 << (uint(i) & 63)
}

// peel returns the observable of the correction extracted from the grown
// clusters. The BFS peel (peelBFS) pushes every defect along its tree path
// to the root, and into the root's boundary edge when its tree holds an
// odd number of them, so a tree contributes the XOR of its defects' path
// observables, plus that edge's mask when odd. In a cluster that is not
// slow, every full-edge path from x to y carries pot(x) ^ pot(y) and every
// exit is the same, so its trees sum to acc ^ (odd ? exit : 0); a
// boundary-free cluster is one tree rooted at its least node, where an odd
// defect is stranded, so it sums to acc ^ (odd ? pot(least) : 0). Only
// slow clusters take the BFS peel.
func (u *UnionFind) peel(defects []int32) uint64 {
	var obsMask uint64
	slow := 0
	for _, r := range u.active { // after growth, the distinct roots
		n := &u.nodes[r]
		switch {
		case n.slow:
			slow++
		case !n.parity:
			obsMask ^= n.acc
		case n.boundary:
			obsMask ^= n.acc ^ n.exit
		default:
			_, p := u.find(n.least)
			obsMask ^= n.acc ^ p
		}
	}
	u.clusters += int64(len(u.active))
	if slow == 0 {
		clear(u.seedEdges)
		return obsMask
	}
	u.bfsClusters += int64(slow)
	return obsMask ^ u.peelBFS(defects)
}

// peelBFS peels the slow clusters and returns the observable of their
// correction. It builds BFS forests over their full edges, rooted first at
// the nodes of their grown boundary edges, in edge index order, so that
// defects can drain into the boundary, then at the least node of each
// boundary-free one, and peels the forests leaves first. The other
// clusters' seeds must stay out, since peel has counted those clusters
// already. Clusters share no full edge, so leaving them out changes
// neither the order in which the queue reaches a slow cluster's nodes nor
// its forest: the correction is the one a BFS over every cluster would
// peel there.
func (u *UnionFind) peelBFS(defects []int32) uint64 {
	for _, d := range defects {
		u.touchPeel(d).defect = true
	}
	u.queue = u.queue[:0]
	u.qHead = 0
	for wi, w := range u.seedEdges {
		u.seedEdges[wi] = 0
		for ; w != 0; w &= w - 1 {
			ei := wi<<6 | bits.TrailingZeros64(w)
			v := int32(u.g.Edges[ei].U)
			if r, _ := u.find(v); !u.nodes[r].slow {
				continue
			}
			if p := u.touchPeel(v); !p.visited {
				p.visited = true
				p.edge = int32(ei)
				u.queue = append(u.queue, v)
			}
		}
	}
	for _, r := range u.active {
		if n := &u.nodes[r]; n.slow && !n.boundary {
			u.touchPeel(n.least).visited = true
			u.queue = append(u.queue, n.least)
		}
	}
	u.bfs()

	// Peel in reverse BFS order: leaves first. A defect at a node is pushed
	// along its parent edge (flipping the correction) onto its parent; roots
	// with boundary edges drain into the boundary. A defect stuck at a root
	// with no boundary edge means the cluster had odd parity without
	// boundary contact, which the growth phase prevents; leave it (decoder
	// failure surfaces as a logical error).
	var obsMask uint64
	for i := len(u.queue) - 1; i >= 0; i-- {
		p := &u.peels[u.queue[i]]
		if !p.defect || p.edge < 0 {
			continue
		}
		obsMask ^= u.g.Edges[p.edge].ObsMask
		p.defect = false
		if p.parent >= 0 {
			q := &u.peels[p.parent]
			q.defect = !q.defect
		}
	}
	return obsMask
}

// bfs drains the queue over fully-grown edges, recording each newly
// reached node's tree edge and parent. The queue doubles as the visit
// order.
func (u *UnionFind) bfs() {
	full := u.epoch<<2 | 2
	for u.qHead < len(u.queue) {
		v := u.queue[u.qHead]
		u.qHead++
		for _, a := range u.arcs[u.first[v]:u.first[v+1]] {
			if a.nbr == Boundary || u.grown[a.edge] != full {
				continue
			}
			if p := u.touchPeel(a.nbr); !p.visited {
				p.visited = true
				p.edge = a.edge
				p.parent = v
				u.queue = append(u.queue, a.nbr)
			}
		}
	}
}
